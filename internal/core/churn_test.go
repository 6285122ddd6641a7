package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/topology"
)

// TestPropertyChurnEventualConvergence is the protocol's main safety/
// liveness property: under an arbitrary schedule of kills and restarts
// (with packet loss), once churn stops the views of all running nodes
// converge to exactly the running set. Several random schedules per run.
func TestPropertyChurnEventualConvergence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			top := topology.Clustered(3, 4)
			cfg := cfgFor(top)
			c := newCluster(top, cfg)
			if seed%2 == 0 {
				c.net.SetLossProbability(0.03)
			}
			c.startAll()
			c.run(15 * time.Second)

			// 90 seconds of random churn: every 3-8s flip a random
			// non-zero node's state.
			end := c.eng.Now() + 90*time.Second
			for c.eng.Now() < end {
				idx := 1 + rng.Intn(len(c.nodes)-1)
				n := c.nodes[idx]
				if n.Running() {
					n.Stop()
				} else {
					n.Start(c.eng)
				}
				c.run(time.Duration(3+rng.Intn(6)) * time.Second)
			}
			// Quiesce: restart everything and let it settle.
			for _, n := range c.nodes {
				if !n.Running() {
					n.Start(c.eng)
				}
			}
			c.run(90 * time.Second)
			c.fullView(t, "after churn quiesced")

			// Exactly one leader per group.
			for g := 0; g < 3; g++ {
				leaders := 0
				for i := 0; i < 4; i++ {
					if c.nodes[g*4+i].IsLeader(0) {
						leaders++
					}
				}
				if leaders != 1 {
					t.Errorf("group %d has %d leaders after churn", g, leaders)
				}
			}
		})
	}
}

// TestSimultaneousGroupFailure kills an entire group at once (including
// its leader); survivors purge all of it and the restarted group rejoins.
func TestSimultaneousGroupFailure(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	for i := 4; i < 8; i++ {
		c.nodes[i].Stop()
	}
	c.run(60 * time.Second)
	c.fullView(t, "whole-group failure")
	for i := 4; i < 8; i++ {
		c.nodes[i].Start(c.eng)
	}
	c.run(60 * time.Second)
	c.fullView(t, "whole-group rejoin")
}

// TestCascadingLeaderFailures kills the leader chain one by one up the
// tree faster than elections fully settle.
func TestCascadingLeaderFailures(t *testing.T) {
	top := topology.Clustered(4, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	// Kill each successive group-0 member 3 seconds apart: every kill
	// removes the current leader before the previous election is old.
	for i := 0; i < 3; i++ {
		c.nodes[i].Stop()
		c.run(3 * time.Second)
	}
	c.run(60 * time.Second)
	c.fullView(t, "after cascading leader failures")
	if !c.nodes[3].IsLeader(0) {
		t.Error("last survivor of group 0 should lead it")
	}
}

// TestFlappingNode rapidly restarts one node; the cluster must track its
// incarnations without ghosts or permanent removal.
func TestFlappingNode(t *testing.T) {
	top := topology.Clustered(2, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	flapper := c.nodes[5]
	for i := 0; i < 6; i++ {
		flapper.Stop()
		c.run(2 * time.Second) // down less than the detection time half the cycles
		flapper.Start(c.eng)
		c.run(4 * time.Second)
	}
	c.run(60 * time.Second)
	c.fullView(t, "after flapping")
	if got := flapper.Info().Incarnation; got < 7 {
		t.Errorf("incarnation = %d, want at least 7 after 6 restarts", got)
	}
}

// TestPropertyRandomTopologyConvergence is the "topology-adaptive" claim
// itself: on arbitrary connected topologies — irregular router trees,
// layer-2 chains, non-transitive TTL scopes — the protocol self-organizes
// and every node obtains the complete directory, then detects a failure.
func TestPropertyRandomTopologyConvergence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			top := topology.Random(seed, 1+int(seed)%4, 2+int(seed)%4, 8+int(seed*3)%8)
			cfg := cfgFor(top)
			c := newCluster(top, cfg)
			c.startAll()
			// Deeper random trees need longer: patience per level.
			settle := time.Duration(top.Diameter()+2) * cfg.electionPatience() * 4
			if settle < 30*time.Second {
				settle = 30 * time.Second
			}
			c.run(settle)
			c.fullView(t, fmt.Sprintf("random topology seed %d (diameter %d, %d hosts)",
				seed, top.Diameter(), top.NumHosts()))

			victim := c.nodes[len(c.nodes)-1]
			victim.Stop()
			c.run(settle)
			c.fullView(t, "random topology failure")
		})
	}
}

// TestConvergenceUnderReordering runs the protocol with heavy latency
// jitter (packet reordering) plus loss: sequence-number handling and UID
// dedup must keep views correct.
func TestConvergenceUnderReordering(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.net.SetLatencyJitter(0.9)
	c.net.SetLossProbability(0.03)
	c.startAll()
	c.run(30 * time.Second)
	c.fullView(t, "reordered convergence")
	c.nodes[6].Stop()
	c.run(40 * time.Second)
	c.fullView(t, "reordered failure")
	c.nodes[6].Start(c.eng)
	for i := 0; i < 5; i++ {
		c.nodes[9].UpdateValue("v", string(rune('a'+i)))
		c.run(2 * time.Second)
	}
	c.run(30 * time.Second)
	c.fullView(t, "reordered churn")
	for _, n := range c.nodes {
		info := n.Directory().Info(n.Directory().Get(9))
		if v, _ := info.Attr("v"); v != "e" {
			t.Fatalf("node %v has v=%q, want e (reordered updates mishandled)", n.ID(), v)
		}
	}
}

// TestConvergenceUnderDuplication runs with 20% packet duplication: every
// operation must be idempotent (§3.1.1: "redundant messages will not cause
// confusion").
func TestConvergenceUnderDuplication(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.net.SetDuplicateProbability(0.2)
	c.startAll()
	c.run(20 * time.Second)
	c.fullView(t, "duplicated convergence")

	// No duplicate join/leave events at observers despite duplicate
	// packets.
	leaves := 0
	c.nodes[1].Directory().AddObserver(func(e membership.Event) {
		if e.Type == membership.EventLeave && e.Node == 7 {
			leaves++
		}
	})
	c.nodes[7].Stop()
	c.run(30 * time.Second)
	c.fullView(t, "duplicated failure")
	if leaves != 1 {
		t.Fatalf("observer saw %d leave events under duplication, want 1", leaves)
	}
}

// TestPerLevelTimeouts verifies higher levels tolerate more silence: when
// a group leader dies, its group mates (level 0) detect it strictly before
// the other leaders (level 1) do, giving the group time to elect a
// replacement before the tree purges it (§3.1.2 Timeout Protocol).
func TestPerLevelTimeouts(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)

	// Node 4 leads group 1; node 5 hears it at level 0, node 0 at level 1.
	killAt := c.eng.Now()
	var mateDetect, leaderDetect time.Duration
	c.nodes[5].Directory().AddObserver(func(e membership.Event) {
		if e.Type == membership.EventLeave && e.Node == 4 && mateDetect == 0 {
			mateDetect = e.Time - killAt
		}
	})
	c.nodes[0].Directory().AddObserver(func(e membership.Event) {
		if e.Type == membership.EventLeave && e.Node == 4 && leaderDetect == 0 {
			leaderDetect = e.Time - killAt
		}
	})
	c.nodes[4].Stop()
	c.run(30 * time.Second)
	if mateDetect == 0 || leaderDetect == 0 {
		t.Fatalf("detections missing: mate=%v leader=%v", mateDetect, leaderDetect)
	}
	if mateDetect >= cfg.DeadAfterLevel(1) {
		t.Errorf("group mate detected at %v, should be near level-0 timeout %v", mateDetect, cfg.DeadAfter())
	}
	// Node 0 may learn via the relayed update (fast) but must not have
	// been first: the group's own detection leads.
	if leaderDetect < mateDetect {
		t.Errorf("level-1 observer detected (%v) before the group (%v)", leaderDetect, mateDetect)
	}
}

// TestSoakLargeCluster converges a 300-node, 15-group cluster and handles
// a failure — an order of magnitude past the paper's 100-node testbed.
// Skipped with -short.
func TestSoakLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const groups, per = 15, 20
	top := topology.Clustered(groups, per)
	n := groups * per
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(30 * time.Second)
	c.fullView(t, "300-node cold start")

	victim := c.nodes[123]
	victim.Stop()
	c.run(30 * time.Second)
	c.fullView(t, "300-node failure")

	// Per-node bandwidth stays modest: the whole point of the scheme.
	c.net.ResetStats()
	c.run(10 * time.Second)
	perNodeKBs := float64(c.net.TotalStats().BytesRecv) / 10 / 1024 / float64(n)
	if perNodeKBs > 40 {
		t.Errorf("per-node receive bandwidth %.1f KB/s at %d nodes; too high", perNodeKBs, n)
	}
	t.Logf("%d nodes: %.2f KB/s per node, %d sim events", n, perNodeKBs, c.eng.Steps())
}
