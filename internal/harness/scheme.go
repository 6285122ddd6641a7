package harness

// This file is the one place that knows what a scheme is; the rest of the
// harness and cmd/ read the table below through its accessors. Adding a
// scheme is one new row (plus, for a new protocol, its node builder) and an
// entry in whichever column sets (ChaosSchemes, TrafficSchemes) should run it.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alltoall"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/rapid"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Scheme selects a membership protocol.
type Scheme int

// The three compared schemes, plus the federated §5 stack (hierarchical
// inside each data center, membership proxies across them), plus the
// Rapid-style stable membership scheme (consistent whole-view changes
// filtered through multi-node cut detection).
const (
	AllToAll Scheme = iota
	Gossip
	Hierarchical
	HierarchicalProxy
	Rapid
	// HierarchicalAdaptive is the self-organizing variant of the
	// hierarchical scheme (docs/ADAPTIVE.md): leader load shedding and
	// group split/merge re-formation.
	HierarchicalAdaptive
	// RapidDC is rapid with the topology-aware monitoring overlay
	// (Config.DCOf): ring 0 stays DC-local so WAN faults cannot be
	// mistaken for the death of every remote subject.
	RapidDC
)

// descriptor is one row of the scheme table.
type descriptor struct {
	// name is the String() value, the scheme's label in every figure, run
	// key and BENCH file. ParseScheme takes it in any letter case, and the
	// aliases as written.
	name    string
	aliases []string
	// build places one protocol node on every host of c.Top.
	build func(c *Cluster)
	// settle and purge are ChaosSettle and ChaosPurgeBound before their
	// fixed margins.
	settle, purge func(n int) time.Duration
	// federated: deployed across data centers behind membership proxies
	// (proxy.Deploy over a Hierarchical cluster), built by NewCell only,
	// audited per DC.
	federated bool
	// reformAudit arms the reform-converge audit on the scheme's cells.
	reformAudit bool
	// stats reads a node's core protocol counters; nil if it keeps none.
	stats func(Instance) core.Stats
}

// hierarchical is the paper's scheme, and the base the adaptive and
// federated rows override. The re-formation audit holds the static tree to
// the same group bounds as the adaptive one, so a scenario that skews
// groups past GroupMax FAILs static and only the adaptive scheme (which can
// split) converges back inside them.
var hierarchical = descriptor{
	name:    "Hierarchical",
	aliases: []string{"hier"},
	build:   coreNodes(core.DefaultConfig),
	// Views also wait out the TTL that keeps already-relayed state alive.
	settle: plus(detectConverge(analysis.HierarchicalFixedFrequency), core.DefaultConfig().RelayedTTL()),
	purge: func(n int) time.Duration {
		m := analysis.HierarchicalFixedFrequency(analysis.DefaultParams(n))
		return m.DetectionTime + core.DefaultConfig().RelayedTTL()
	},
	reformAudit: true,
	stats:       func(i Instance) core.Stats { return i.(interface{ Stats() core.Stats }).Stats() },
}

// rapid's timing does not depend on the cluster size.
var rapidScheme = descriptor{
	name:   "rapid",
	build:  rapidNodes(false),
	settle: func(int) time.Duration { return rapid.RejoinBound() },
	purge:  func(int) time.Duration { return rapid.EvictionBound() },
}

// schemes is the table, indexed by the Scheme constants.
var schemes = [...]descriptor{
	AllToAll: {
		name:    "All-to-all",
		aliases: []string{"alltoall", "a2a"},
		build:   allToAllNodes,
		settle:  detectConverge(analysis.AllToAllFixedFrequency),
		purge:   detectConverge(analysis.AllToAllFixedFrequency),
	},
	Gossip: {
		name:  "Gossip",
		build: gossipNodes,
		// A restarted member re-enters views via gossip rounds; its prior
		// death must also clear every failure timeout.
		settle: func(n int) time.Duration {
			return detectConverge(analysis.GossipFixedFrequency)(n) + gossip.FailTimeoutFor(n)
		},
		purge: detectConverge(analysis.GossipFixedFrequency),
	},
	Hierarchical: hierarchical,
	// The in-DC protocol is plain hierarchical (NewCell deploys over a
	// Hierarchical cluster's nodes) and purges like it: the proxy layer
	// holds no per-node membership of its own. On top of the in-DC settle
	// time, a remote summary may have expired during the fault and is only
	// re-sent on the full-summary cadence (proxy.SummaryRefresh). The
	// re-formation contract is audited on single-cluster trees only.
	HierarchicalProxy: variant(hierarchical, "hierarchical+proxy", []string{"proxy", "fed"}, func(d *descriptor) {
		d.settle = plus(d.settle, proxy.SummaryRefresh)
		d.federated = true
		d.reformAudit = false
	}),
	Rapid: rapidScheme,
	// Plain hierarchical settling plus the closed-form re-formation deadline
	// (core.Config.ReformSettle). The adaptive variant changes who relays,
	// not how long relayed state may live, so it purges like its base.
	HierarchicalAdaptive: variant(hierarchical, "hierarchical+adaptive", []string{"adaptive"}, func(d *descriptor) {
		d.build = coreNodes(core.AdaptiveDefaults)
		d.settle = plus(d.settle, core.AdaptiveDefaults().ReformSettle())
	}),
	// The DC-aware overlay changes who monitors whom, not any timing
	// constant.
	RapidDC: variant(rapidScheme, "rapid+dc", nil, func(d *descriptor) { d.build = rapidNodes(true) }),
}

// variant derives a row from base: a new name plus whatever override changes.
func variant(base descriptor, name string, aliases []string, override func(*descriptor)) descriptor {
	base.name, base.aliases = name, aliases
	override(&base)
	return base
}

func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemes) {
		return fmt.Sprintf("scheme(%d)", int(s))
	}
	return schemes[s].name
}

// ReformAudited reports whether the scheme's audited cells arm the
// reform-converge invariant (the tree schemes, static included).
func (s Scheme) ReformAudited() bool { return schemes[s].reformAudit }

// SchemeNames lists every scheme's command-line spelling, in table order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, d := range schemes {
		names[i] = strings.ToLower(d.name)
	}
	return names
}

// ParseScheme resolves a scheme's name or one of its aliases; the error for
// an unknown name lists the valid ones.
func ParseScheme(name string) (Scheme, error) {
	for i, d := range schemes {
		if strings.EqualFold(name, d.name) {
			return Scheme(i), nil
		}
		for _, a := range d.aliases {
			if name == a {
				return Scheme(i), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

// ChaosSettle bounds how long a scheme needs after the last fault heals
// until its views must be complete again: the §4 closed-form
// detection+convergence time, plus the stale-state TTLs the protocol keeps,
// plus a fixed margin for election and re-join transients.
func ChaosSettle(scheme Scheme, n int) time.Duration {
	return schemes[scheme].settle(n) + 10*time.Second
}

// ChaosPurgeBound bounds how long a dead daemon may linger in any view:
// the detection time plus whatever TTL keeps already-relayed state alive,
// plus a fixed margin.
func ChaosPurgeBound(scheme Scheme, n int) time.Duration {
	return schemes[scheme].purge(n) + 5*time.Second
}

// detectConverge is a §4 model's closed-form detection plus convergence
// time at the harness defaults.
func detectConverge(model func(analysis.Params) analysis.Metrics) func(int) time.Duration {
	return func(n int) time.Duration {
		m := model(analysis.DefaultParams(n))
		return m.DetectionTime + m.ConvergenceTime
	}
}

func plus(bound func(int) time.Duration, extra time.Duration) func(int) time.Duration {
	return func(n int) time.Duration { return bound(n) + extra }
}

// NewCluster builds a cluster of the given scheme over a topology. The
// configuration mirrors §6.2: 1 Hz multicast/gossip frequency, 5 tolerated
// losses, 0.1% gossip mistake probability, 228-byte membership packets.
func NewCluster(scheme Scheme, top *topology.Topology, seed int64) *Cluster {
	return newCluster(scheme, top, seed, nil)
}

// newCluster is NewCluster with an ablation's override: tune, when not nil,
// edits the node config (*core.Config for the tree schemes, *gossip.Config
// for gossip) after the row's builder has filled it in.
func newCluster(scheme Scheme, top *topology.Topology, seed int64, tune func(cfg any)) *Cluster {
	d := schemes[scheme]
	if d.federated {
		panic(fmt.Sprintf("harness: %v is federated; build it with NewCell", scheme))
	}
	eng := sim.NewEngine(seed)
	c := &Cluster{Scheme: scheme, Eng: eng, Net: netsim.New(eng, top), Top: top, tune: tune}
	d.build(c)
	return c
}

// CoreStats sums the core protocol counters over every node; ok is false
// for a scheme whose nodes keep none.
func (c *Cluster) CoreStats() (total core.Stats, ok bool) {
	stats := schemes[c.Scheme].stats
	if stats == nil {
		return total, false
	}
	for _, n := range c.Nodes {
		total.Add(stats(n))
	}
	return total, true
}

// populate places one node per host, in host order.
func (c *Cluster) populate(node func(ep netsim.Transport) Instance) {
	n := c.Top.NumHosts()
	c.Nodes = make([]Instance, n)
	for h := range c.Nodes {
		c.Nodes[h] = node(c.Net.Endpoint(topology.HostID(h)))
	}
}

func (c *Cluster) retune(cfg any) {
	if c.tune != nil {
		c.tune(cfg)
	}
}

// diameter is the TTL that reaches every host.
func (c *Cluster) diameter() int {
	return max(c.Top.Diameter(), 1)
}

// everyHost lists all n node IDs: the seed set of the schemes that
// bootstrap from contact addresses.
func everyHost(n int) []membership.NodeID {
	ids := make([]membership.NodeID, n)
	for h := range ids {
		ids[h] = membership.NodeID(h)
	}
	return ids
}

// padFor computes the heartbeat padding that brings a default heartbeat to
// the target wire size.
func padFor(target int) int {
	sample := wire.Encode(&wire.Heartbeat{
		Info:   membership.MemberInfo{Node: 0, Incarnation: 1},
		Backup: membership.NoNode,
	})
	return max(target-netsim.UDPOverhead-len(sample), 0)
}

func allToAllNodes(c *Cluster) {
	cfg := alltoall.DefaultConfig()
	cfg.TTL = c.diameter()
	cfg.HeartbeatPad = padFor(HeartbeatWireTarget)
	c.populate(func(ep netsim.Transport) Instance { return alltoall.NewNode(cfg, ep) })
}

func gossipNodes(c *Cluster) {
	cfg := gossip.DefaultConfig()
	cfg.ExpectedSize = c.Top.NumHosts()
	cfg.Seeds = everyHost(c.Top.NumHosts())
	// Equalize per-member record size with the heartbeat schemes: one
	// bare gossip entry is ~50 bytes; pad each to the 228-byte target
	// minus the per-packet header share.
	sample := wire.Encode(&wire.Gossip{Entries: []wire.GossipEntry{{
		Info: membership.MemberInfo{Node: 0, Incarnation: 1},
	}}})
	cfg.EntryPad = max(HeartbeatWireTarget-netsim.UDPOverhead-len(sample), 0)
	c.retune(&cfg)
	c.populate(func(ep netsim.Transport) Instance { return gossip.NewNode(cfg, ep) })
}

func coreNodes(base func() core.Config) func(*Cluster) {
	return func(c *Cluster) {
		cfg := base()
		cfg.MaxTTL = c.diameter()
		cfg.HeartbeatPad = padFor(HeartbeatWireTarget)
		c.retune(&cfg)
		c.populate(func(ep netsim.Transport) Instance { return core.NewNode(cfg, ep) })
	}
}

func rapidNodes(dcAware bool) func(*Cluster) {
	return func(c *Cluster) {
		cfg := rapid.DefaultConfig()
		cfg.HeartbeatPad = padFor(HeartbeatWireTarget)
		if top := c.Top; dcAware {
			cfg.DCOf = func(id membership.NodeID) int { return top.HostDC(topology.HostID(id)) }
		}
		cfg.Seeds = everyHost(c.Top.NumHosts())
		c.populate(func(ep netsim.Transport) Instance { return rapid.NewNode(cfg, ep) })
	}
}
