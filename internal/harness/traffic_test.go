package harness

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/raceflag"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestTrafficDeterminism mirrors TestChaosDeterminism for the traffic
// matrix: the rendered user-level outcome table must be byte-identical
// regardless of worker count and across repeated invocations — every
// quantile comes from a deterministic histogram and every seed from the
// cell key, never from scheduling.
func TestTrafficDeterminism(t *testing.T) {
	run := func(workers int) string {
		o := DefaultTrafficOptions()
		o.sessions = 300 // smaller population: same code paths, faster cells
		o.Scenarios = []string{"kill-restart", "group-outage", "proxy-quorum-loss"}
		o.Sweep = Sweep{Workers: workers}
		return trafficMatrixTable.render(TrafficMatrix(o))
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("traffic matrix differs between workers=1 and workers=8:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	if again := run(1); again != serial {
		t.Fatalf("traffic matrix differs between two serial invocations:\n--- first ---\n%s--- second ---\n%s", serial, again)
	}
	if !strings.Contains(serial, "group-outage") || !strings.Contains(serial, "hierarchical+proxy") ||
		strings.Count(serial, "\n") != 2+3*len(TrafficSchemes) {
		t.Fatalf("unexpected matrix shape:\n%s", serial)
	}
}

// TestTrafficStaleDirectoryCostsUsers pins the matrix's reason to exist:
// killing a replica mid-run must surface as user-visible misroutes and
// session migrations on every scheme, and a healthy steady run must show
// none of either.
//
// Mutant: a daemon's Start re-installs its own handler (each scheme).
func TestTrafficStaleDirectoryCostsUsers(t *testing.T) {
	o := DefaultTrafficOptions()
	o.sessions = 300
	o.Scenarios = []string{"steady", "kill-restart"}
	byCell := map[string]TrafficResult{}
	for _, r := range TrafficMatrix(o) {
		byCell[r.Scenario+"/"+r.Scheme] = r
	}
	for _, scheme := range TrafficSchemes {
		steady := byCell["steady/"+scheme.String()].Traffic
		if steady.Requests == 0 || steady.OK != steady.Requests {
			t.Errorf("%s steady: ok=%d of %d requests", scheme, steady.OK, steady.Requests)
		}
		if steady.Misrouted != 0 || steady.Migrations != 0 {
			t.Errorf("%s steady: misrouted=%d migrations=%d on a healthy cluster",
				scheme, steady.Misrouted, steady.Migrations)
		}
		kill := byCell["kill-restart/"+scheme.String()].Traffic
		if kill.Misrouted == 0 || kill.Migrations == 0 {
			t.Errorf("%s kill-restart: misrouted=%d migrations=%d; replica death left no user trace",
				scheme, kill.Misrouted, kill.Migrations)
		}
		if kill.MigP99 <= 0 || kill.ReqP999 < kill.ReqP99 {
			t.Errorf("%s kill-restart: implausible quantiles mig-p99=%v p99=%v p999=%v",
				scheme, kill.MigP99, kill.ReqP99, kill.ReqP999)
		}
	}
}

// TestTrafficCrossDCRelay exercises the session-migration path the matrix's
// default partition layout never reaches: every local replica of the app
// dies, so sessions in the victim DC can only be served through the
// membership proxy's cross-DC relay (§5, Figure 6), and must return to a
// local replica after restart.
func TestTrafficCrossDCRelay(t *testing.T) {
	cell := NewCell(HierarchicalProxy, nil, 1, 4, 42) // 1 group of 4 per DC: small blast radius
	c := cell.Cluster
	rts := cell.Runtimes()
	// One partition, hosted by the last host of each DC — killing DC0's
	// host 3 leaves DC0 without any local replica.
	dc0Replica, dc1Replica := 3, 7
	for _, h := range []int{dc0Replica, dc1Replica} {
		if err := rts[h].Register("relay-app", "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.StartAll()

	topt := traffic.DefaultOptions()
	topt.Service = "relay-app"
	topt.Partitions = 1
	topt.Sessions = 50
	// Sessions originate only from DC0's plain host, so every one of them
	// loses its whole local replica set at the kill.
	l := traffic.New(c.Eng, topt, rts[:1], func(id membership.NodeID) bool {
		return c.Nodes[int(id)].Running()
	})
	c.Eng.Schedule(10*time.Second, l.Start)
	c.Eng.Run(30 * time.Second)

	pre := l.Stats()
	if pre.OK == 0 || pre.Relayed != 0 {
		t.Fatalf("warm-up traffic not locally served: %+v", pre)
	}
	c.Nodes[dc0Replica].Stop()
	c.Eng.Run(c.Eng.Now() + 60*time.Second)
	mid := l.Stats()
	if mid.Relayed == 0 {
		t.Fatalf("no requests relayed across the WAN after the local replica died: %+v", mid)
	}
	if mid.Migrations == 0 {
		t.Fatalf("sessions never completed migration onto the relay path: %+v", mid)
	}

	// Restart: sessions must leave the relay and re-pin locally.
	c.Nodes[dc0Replica].Start(c.Eng)
	c.Eng.Run(c.Eng.Now() + 60*time.Second)
	relayedAtRestart := l.Stats().Relayed
	c.Eng.Run(c.Eng.Now() + 30*time.Second)
	post := l.Stats()
	if post.Relayed != relayedAtRestart {
		t.Errorf("sessions still relaying %d requests long after the local replica returned",
			post.Relayed-relayedAtRestart)
	}
	if post.OK <= mid.OK {
		t.Errorf("no successful local traffic after restart: %+v", post)
	}
}

// TestTrafficMillionSessions is the scale smoke: one million virtual
// sessions batched through the tick wheel on a steady hierarchical
// cluster. It pins that the session layer's cost stays in the batched
// regime (no per-session timers) and that the outcome accounting holds at
// population scale. ~1 minute of wall time, so it only runs when
// TAMP_SCALE is set, like the 1000-node churn run.
func TestTrafficMillionSessions(t *testing.T) {
	if os.Getenv("TAMP_SCALE") == "" {
		t.Skip("set TAMP_SCALE=1 to run the million-session smoke")
	}
	if testing.Short() {
		t.Skip("million-session smoke skipped in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("million-session smoke skipped under -race")
	}
	c := NewCluster(Hierarchical, topology.Clustered(matrixGroups, matrixPerGroup), 42)
	rts := attachRuntimes(c)
	registerApp(rts)
	c.StartAll()

	topt := traffic.DefaultOptions()
	topt.Sessions = 1_000_000
	topt.Partitions = trafficPartitions
	topt.Think = time.Minute // ~17k requests/s of virtual time
	// Opens must spread at least as thin as the steady rate: every open
	// issues a request immediately, and 24 hosts at 1 ms/request serve
	// ~24k requests/s — a 30 s ramp (33k opens/s) would melt the cluster
	// with genuine overload, which is not what this smoke is pinning.
	topt.OpenOver = time.Minute
	l := traffic.New(c.Eng, topt, rts, func(id membership.NodeID) bool {
		return c.Nodes[int(id)].Running()
	})
	c.Eng.Schedule(10*time.Second, l.Start)
	c.Eng.Run(150 * time.Second)
	l.Stop()
	c.Eng.Run(c.Eng.Now() + 5*time.Second)

	st := l.Stats()
	if st.Sessions != 1_000_000 {
		t.Fatalf("opened %d of 1M sessions", st.Sessions)
	}
	if st.Requests < 1_500_000 {
		t.Fatalf("only %d requests from 1M closed-loop sessions", st.Requests)
	}
	if st.OK != st.Requests {
		t.Fatalf("steady 1M run not clean: ok=%d of %d (timeouts=%d unavailable=%d)",
			st.OK, st.Requests, st.Timeouts, st.Unavailable)
	}
	if st.Misrouted != 0 || st.Migrations != 0 {
		t.Fatalf("steady 1M run migrated: misrouted=%d migrations=%d", st.Misrouted, st.Migrations)
	}
}
