package chaos

import "fmt"

// wanBad is the degraded-WAN regime of the wan-degrade scenario: heavy loss
// plus strong reordering, but not a full partition.
const wanBad = "wan-fault loss=0.3 jitter=0.4"

// Library returns the named built-in scenarios, parameterized by the
// harness cluster shape (groups of perGroup hosts on the Clustered
// topology; the multidc scenarios run on MultiDC(NumDCs, groups,
// perGroup), two data centers unless the scenario asks for more).
// Faults start no earlier than 20s in, leaving the cluster a warm-up
// window to converge from a cold start.
//
// Conventions: group 1 is the victim group (group 0 keeps node 0, the
// lowest ID, stable as the root leader), and within it the second member
// (host perGroup+1) is the victim node, so the group's own leader
// (perGroup, its lowest ID) survives single-node scenarios.
func Library(groups, perGroup int) []*Scenario {
	v := perGroup + 1 // victim node in group 1
	return []*Scenario{
		{
			Name:        "steady",
			Description: "control: no faults at all",
			Expect:      "every invariant holds for every scheme",
		},
		{
			Name:        "kill-restart",
			Description: "one daemon dies and comes back",
			Expect:      "views drop and re-add the victim within the detection+convergence bound",
			Steps:       Steps("@20s kill %d\n@40s restart %d", v, v),
		},
		{
			Name:        "leader-kill",
			Description: "kill group 1's leader twice in a row, then restart the group's dead members",
			Expect:      "a new leader is elected each time; at most one live leader after grace",
			Steps:       Steps("@20s kill-leader 1\n@26s kill-leader 1\n@50s group-restart 1"),
		},
		{
			Name:        "group-outage",
			Description: "correlated failure: all of group 1 loses power, later restored",
			Expect:      "survivors purge the whole group by the purge deadline, then re-admit it",
			Steps:       Steps("@20s group-outage 1\n@45s group-restart 1"),
		},
		{
			Name:        "partition-heal",
			Description: "cut group 1's switch uplink, heal it 40s later",
			Expect:      "group 1 stays internally complete; after heal all views re-converge",
			Steps:       Steps("@20s fail-link sw1 core\n@60s repair-link sw1 core"),
		},
		{
			Name:        "switch-outage",
			Description: "group 1's switch dies entirely (members lose even each other), later repaired",
			Expect:      "the rest of the cluster purges group 1; full re-convergence after repair",
			Steps:       Steps("@20s fail-device sw1\n@45s repair-device sw1"),
		},
		{
			Name:        "flapping",
			Description: "one unstable daemon cycles down/up four times",
			Expect:      "incarnation bumps keep sequence numbers monotone; views settle once flapping stops",
			Steps:       Steps("@20s repeat 4 every 8s {\n@0s kill %d\n@3s restart %d\n}", v, v),
		},
		{
			Name:        "loss-surge",
			Description: "network-wide loss ramps 0 to 30% over 20s, then drops back to zero",
			Expect:      "no false failure declarations below each scheme's loss tolerance; clean views after the surge",
			Steps:       Steps("@20s loss-ramp 0 0.3 20s 10\n@45s loss 0"),
		},
		{
			Name:        "cascade",
			Description: "a rolling failure: one daemon per group dies in 5s intervals, then all recover",
			Expect:      "each group detects its own loss independently; no cross-group phantom entries",
			// One kill per group, shifting the victim by perGroup each
			// iteration; the mirrored repeat rolls the restarts 30s later.
			Steps: Steps("@20s repeat %[1]d every 5s step %[2]d {\n@0s kill 1\n}\n"+
				"@50s repeat %[1]d every 5s step %[2]d {\n@0s restart 1\n}", groups, perGroup),
		},
		{
			Name:        "wan-degrade",
			Description: "both data centers stay up but the WAN link between them degrades badly, then heals",
			Expect:      "schemes that relay across the WAN keep cross-DC views through the degradation",
			MultiDC:     true,
			Steps:       Steps("@20s " + wanBad + "\n@60s wan-fault"),
		},
		{
			Name:        "proxy-failover",
			Description: "each data center's proxy leader is killed in turn, everything restarts later",
			Expect:      "the backup proxy takes the VIP over; at most one VIP holder per DC after grace",
			MultiDC:     true,
			Steps:       Steps("@20s kill-proxy-leader 0\n@30s kill-proxy-leader 1\n@50s restart-down"),
		},
		{
			Name:         "proxy-quorum-loss",
			Description:  "with 3 proxies per DC, DC 0 loses its proxy leader twice in a row, leaving one survivor",
			Expect:       "the VIP walks the failover chain without a gap; one survivor still serves remote lookups",
			MultiDC:      true,
			ProxiesPerDC: 3,
			Steps:        Steps("@20s kill-proxy-leader 0\n@35s kill-proxy-leader 0\n@55s restart-down"),
		},
		{
			Name:        "wan-partition-heal",
			Description: "the WAN is cut outright for 40s, then repaired",
			Expect:      "remote summaries expire during the cut instead of lingering stale, and refresh after heal",
			MultiDC:     true,
			Steps:       Steps("@20s fail-wan\n@60s repair-wan"),
		},
		// dc-cascade: the WAN degrades, then the same in-DC position fails in
		// each data center in turn (stride = one DC's worth of hosts), and the
		// WAN heals before everything restarts — the compound regime where
		// summaries must recover from both staleness and remote churn.
		{
			Name:        "dc-cascade",
			Description: "WAN degradation plus a rolling one-node failure in each data center, then heal and restart",
			Expect:      "federated summaries re-converge to remote ground truth after heal; no phantom or stale entries",
			MultiDC:     true,
			Steps: Steps("@20s "+wanBad+"\n@25s repeat 2 every 5s step %d {\n@0s kill %d\n}\n@55s wan-fault\n@60s restart-down",
				groups*perGroup, v),
		},
		// The adversarial quartet: byte damage, asymmetric loss, gray failure,
		// and replayed traffic. All four probe the same contract — corruption
		// may cost liveness (slower detection, lost refreshes) but never safety
		// (no phantom members, no sequence regressions).
		{
			Name:        "bit-rot",
			Description: "group 1's uplink flips bits and truncates packets for 40s, then heals",
			Expect:      "checksum and strict decoding drop every damaged packet; no phantom members or regressed sequences, views re-converge after heal",
			Steps:       Steps("@20s link-fault sw1 core corrupt=0.3 truncate=0.15\n@60s link-fault sw1 core"),
		},
		{
			Name:        "one-way-wan",
			Description: "the WAN drops 90% of DC0→DC1 traffic while DC1→DC0 stays clean, then heals",
			Expect:      "DC1's view of DC0 expires while DC0 keeps hearing DC1; both directions re-converge after heal",
			MultiDC:     true,
			Steps:       Steps("@20s asym-loss dc0-core dc1-core 0.9\n@60s asym-loss dc0-core dc1-core 0"),
		},
		{
			Name:        "limping-leader",
			Description: "node 0 (the root leader) limps: up to 2s of seeded processing lag on everything it sends or receives, healing later",
			Expect:      "the laggard stays a member (no false death below the detection bound) and the cluster keeps converged views",
			Steps:       Steps("@20s gray-node 0 2s\n@60s gray-node 0 0s"),
		},
		{
			Name:        "replay-storm",
			Description: "group 1's uplink replays half of recent traffic and re-delivers stale copies for 40s",
			Expect:      "freshness guards reject every replayed beat; no resurrected members or regressed sequences",
			Steps:       Steps("@20s link-fault sw1 core replay=0.5 stale=0.25\n@60s link-fault sw1 core"),
		},
		// The self-organizing pair plus the gray-victim scenario. hot-leader
		// never heals: the point is that the load stays, and only a hierarchy
		// that can move leadership off the hot node keeps relaying. skew-groups
		// folds the victim group's hosts into group 2's TTL-1 scope, doubling
		// the level-0 group — bounded-group convergence then requires a split.
		{
			Name:        "hot-leader",
			Description: "group 1's leader is saturated with external load and never healed",
			Expect:      "static tree starves its relays and loses group 1; adaptive sheds leadership to the least-loaded member and re-converges",
			Steps:       Steps("@20s hot-leader 1 64"),
		},
		{
			Name:        "skew-groups",
			Description: "group 1's hosts are re-cabled onto group 2's switch, doubling that level-0 group",
			Expect:      "static tree runs a pathologically oversized group forever; adaptive splits it back into bounds",
			Steps:       Steps("@20s skew-groups 1 2"),
		},
		{
			Name:        "gray-node",
			Description: "one non-leader member limps with up to 1.5s of seeded processing lag, healing later",
			Expect:      "the laggard stays a member below the detection bound; request hedging masks its tail latency",
			Steps:       Steps("@20s gray-node %d 1.5s\n@60s gray-node %d 0s", v, v),
		},
		// dc-fallback: the first scenario to span three data centers. Killing
		// both of DC1's proxies (leader first, then the promoted backup) removes
		// an entire remote summary source, so DC0's cross-DC lookups must walk
		// the remote-DC fallback order past DC1's expired summaries to DC2 — a
		// path a two-DC federation can never exercise. Non-proxy schemes fall
		// back to killing DC1's lowest running hosts, so the same script still
		// stresses every scheme.
		{
			Name:        "dc-fallback",
			Description: "three data centers; DC1 loses both proxies in turn, then everything restarts",
			Expect:      "DC1's summaries expire everywhere instead of lingering; cross-DC invocation falls back to the next advertised DC; summaries re-converge after restart",
			MultiDC:     true,
			DCs:         3,
			Steps:       Steps("@20s kill-proxy-leader 1\n@28s kill-proxy-leader 1\n@50s restart-down"),
		},
	}
}

// Find returns the library scenario with the given name.
func Find(name string, groups, perGroup int) (*Scenario, error) {
	for _, s := range Library(groups, perGroup) {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("chaos: no scenario named %q (have %v)", name, Names(groups, perGroup))
}

// Names lists the library scenario names in presentation order.
func Names(groups, perGroup int) []string {
	lib := Library(groups, perGroup)
	out := make([]string, len(lib))
	for i, s := range lib {
		out[i] = s.Name
	}
	return out
}
