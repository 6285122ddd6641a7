package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestFigure4OverlappingGroups reproduces the paper's Figure 4: a general
// topology where TTL distance is not transitive, so same-level groups
// overlap. Segment leaders A, B, C form level-scoped groups where B can
// reach both A and C but A and C cannot reach each other at that TTL. The
// paper allows two outcomes — B leads both overlapping groups, or B leads
// one and another node the other — and requires that membership still
// propagates to everyone.
func TestFigure4OverlappingGroups(t *testing.T) {
	top := topology.Figure4(2) // A:{0,1} B:{2,3} C:{4,5}
	cfg := DefaultConfig()
	cfg.MaxTTL = top.Diameter() // 5 in our arm-lengthened variant
	c := newCluster(top, cfg)
	c.startAll()
	c.run(40 * time.Second)
	c.fullView(t, "figure 4 topology")

	// The segment leaders are the lowest IDs per segment.
	for _, leader := range []int{0, 2, 4} {
		if !c.nodes[leader].IsLeader(0) {
			t.Errorf("node %d should lead its level-0 segment", leader)
		}
	}
	// At level 2 (TTL 3), B's segment leader (node 2) sees A's and C's
	// leaders; A and C cannot see each other. Whatever leadership pattern
	// emerged, there must be no two leaders that can see each other at the
	// same level.
	for lvl := 0; lvl < cfg.MaxTTL; lvl++ {
		var leaders []membership.NodeID
		for _, n := range c.nodes {
			if n.IsLeader(lvl) {
				leaders = append(leaders, n.ID())
			}
		}
		for i := 0; i < len(leaders); i++ {
			for j := i + 1; j < len(leaders); j++ {
				a, b := leaders[i], leaders[j]
				if top.MinTTL(topology.HostID(a), topology.HostID(b)) <= lvl+1 {
					t.Errorf("level %d: leaders %v and %v can see each other", lvl, a, b)
				}
			}
		}
	}
}

// TestFigure4FailurePropagation kills a node in segment C and checks
// segment A learns of it across the non-transitive middle.
func TestFigure4FailurePropagation(t *testing.T) {
	top := topology.Figure4(2)
	cfg := DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	c := newCluster(top, cfg)
	c.startAll()
	c.run(40 * time.Second)
	c.fullView(t, "before failure")
	c.nodes[5].Stop() // follower in segment C
	c.run(40 * time.Second)
	c.fullView(t, "after segment-C failure")
}

// TestFigure5PropagationPath verifies the update relay pattern of Figure 5:
// the detecting group's leader multicasts into the parent group, whose
// members relay down into the groups they lead.
func TestFigure5PropagationPath(t *testing.T) {
	top := topology.Clustered(3, 4) // groups {0-3} {4-7} {8-11}, leaders 0,4,8
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)

	// Watch when each node learns of the failure of node 2 (follower in
	// group 0, detected only inside group 0).
	killAt := c.eng.Now()
	var order []membership.NodeID
	times := map[membership.NodeID]time.Duration{}
	for _, n := range c.nodes {
		if n.ID() == 2 {
			continue
		}
		n := n
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type == membership.EventLeave && e.Node == 2 {
				if _, ok := times[n.ID()]; !ok {
					times[n.ID()] = e.Time
					order = append(order, n.ID())
				}
			}
		})
	}
	c.nodes[2].Stop()
	c.run(30 * time.Second)

	if len(times) != 11 {
		t.Fatalf("%d nodes noticed, want 11", len(times))
	}
	// Group 0 members detect directly; remote followers (5,6,7,9,10,11)
	// must learn no earlier than their group leaders relay, i.e. at or
	// after the earliest detection in group 0.
	var firstLocal time.Duration = 1 << 62
	for _, id := range []membership.NodeID{0, 1, 3} {
		if times[id] < firstLocal {
			firstLocal = times[id]
		}
	}
	for _, id := range []membership.NodeID{5, 6, 7, 9, 10, 11} {
		if times[id] < firstLocal {
			t.Errorf("remote node %v learned at %v, before first local detection %v", id, times[id], firstLocal)
		}
	}
	// Everything converges within a couple of heartbeats after detection.
	for id, at := range times {
		if at-killAt > cfg.DeadAfterLevel(0)+5*cfg.HeartbeatInterval {
			t.Errorf("node %v converged too late: %v after kill", id, at-killAt)
		}
	}
}

// TestMessageLossRecoveryViaPiggyback drops a single update multicast at
// one receiver and verifies the piggybacked copy in the next update message
// repairs it without a full sync.
func TestMessageLossRecoveryViaPiggyback(t *testing.T) {
	top := topology.Clustered(2, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)

	// Drop the next single UpdateMsg delivered to node 1.
	dropped := 0
	c.net.Endpoint(1).SetFilter(func(pkt netsim.Packet) bool {
		if dropped > 0 {
			return true
		}
		if m, err := wire.Decode(pkt.Payload); err == nil {
			if _, ok := m.(*wire.UpdateMsg); ok {
				dropped++
				return false
			}
		}
		return true
	})
	// Two changes in a row from node 6: the first update message to node 1
	// is dropped; the second piggybacks it.
	c.nodes[6].UpdateValue("k", "v1")
	c.run(2 * time.Second)
	c.nodes[6].UpdateValue("k", "v2")
	c.run(10 * time.Second)
	if dropped != 1 {
		t.Fatalf("filter dropped %d update messages, want 1", dropped)
	}
	e := c.nodes[1].Directory().Get(6)
	if e == nil {
		t.Fatal("node 1 lost node 6")
	}
	info := c.nodes[1].Directory().Info(e)
	if v, _ := info.Attr("k"); v != "v2" {
		t.Fatalf("node 1 sees k=%q, want v2", v)
	}
}

// TestUnrecoverableLossTriggersSync drops many consecutive update messages
// at one receiver — beyond the piggyback depth — and verifies the receiver
// falls back to polling the sender for a full directory.
func TestUnrecoverableLossTriggersSync(t *testing.T) {
	top := topology.Clustered(2, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)

	syncs := 0
	c.net.Endpoint(0).SetFilter(func(pkt netsim.Packet) bool {
		if m, err := wire.Decode(pkt.Payload); err == nil {
			if _, ok := m.(*wire.SyncRequest); ok {
				syncs++
			}
		}
		return true
	})
	// Drop the next 6 update messages delivered to node 1 (> piggyback 3).
	remaining := 6
	c.net.Endpoint(1).SetFilter(func(pkt netsim.Packet) bool {
		if remaining <= 0 {
			return true
		}
		if m, err := wire.Decode(pkt.Payload); err == nil {
			if um, ok := m.(*wire.UpdateMsg); ok && um.Sender == 0 {
				remaining--
				return false
			}
		}
		return true
	})
	for i := 0; i < 7; i++ {
		c.nodes[2].UpdateValue("step", string(rune('a'+i)))
		c.run(1500 * time.Millisecond)
	}
	c.run(10 * time.Second)
	if syncs == 0 {
		t.Fatal("no SyncRequest observed despite unrecoverable loss")
	}
	info := c.nodes[1].Directory().Info(c.nodes[1].Directory().Get(2))
	if v, _ := info.Attr("step"); v != "g" {
		t.Fatalf("node 1 sees step=%q, want g (recovered via sync)", v)
	}
}

// TestTimeoutProtocolPurgesRelayedInfo verifies the Timeout Protocol: when
// a relaying leader dies together with its subtree (switch partition), the
// information it relayed is purged after the per-level grace — detecting
// the network partition — while a mere leader failure with a live subtree
// does NOT purge the subtree (the replacement leader republishes in time).
func TestTimeoutProtocolPurgesRelayedInfo(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	c.fullView(t, "pre-partition")

	// Partition group 2 (nodes 8-11) by cutting its switch's uplink; the
	// group stays internally connected, modelling the paper's "network
	// partition failures (e.g., switch failures)".
	sw, ok := top.FindDevice("sw2")
	if !ok {
		t.Fatal("sw2 missing")
	}
	core, _ := top.FindDevice("core")
	top.FailLink(sw.ID, core.ID)
	c.run(60 * time.Second)

	// Survivors (0-7) must have purged all of group 2 — including nodes
	// 9-11, which they only knew via relays.
	for _, n := range c.nodes[:8] {
		for _, ghost := range []membership.NodeID{8, 9, 10, 11} {
			if n.Directory().Has(ghost) {
				t.Errorf("node %v still lists partitioned node %v", n.ID(), ghost)
			}
		}
	}
	// The partitioned group still sees itself.
	for _, n := range c.nodes[8:] {
		view := n.Directory().Nodes()
		if !slices.Equal(view, []membership.NodeID{8, 9, 10, 11}) {
			t.Errorf("partitioned node %v view = %v", n.ID(), view)
		}
	}

	// Heal the partition: views must re-converge.
	top.RepairLink(sw.ID, core.ID)
	c.run(60 * time.Second)
	c.fullView(t, "after heal")
}

// TestLeaderDeathKeepsSubtree is the negative case of the timeout protocol:
// only the leader dies; its group's information must survive via the
// replacement leader.
func TestLeaderDeathKeepsSubtree(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	c.nodes[4].Stop() // leader of group 1
	c.run(45 * time.Second)
	for _, n := range c.nodes {
		if n == c.nodes[4] {
			continue
		}
		for _, alive := range []membership.NodeID{5, 6, 7} {
			if !n.Directory().Has(alive) {
				t.Errorf("node %v dropped live node %v after its leader died", n.ID(), alive)
			}
		}
		if n.Directory().Has(4) {
			t.Errorf("node %v still lists dead leader 4", n.ID())
		}
	}
	// Node 5 replaced node 4 as group leader.
	if !c.nodes[5].IsLeader(0) {
		t.Error("node 5 should lead group 1 after node 4's death")
	}
}

// TestBackupLeaderFastTakeover verifies the designated backup claims
// leadership when the primary dies.
func TestBackupLeaderFastTakeover(t *testing.T) {
	top := topology.FlatLAN(5)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	leader := c.nodes[0]
	if !leader.IsLeader(0) {
		t.Fatal("node 0 should lead")
	}
	backup := leader.levels[0].backup
	if backup == membership.NoNode {
		t.Fatal("leader designated no backup")
	}
	leader.Stop()
	c.run(20 * time.Second)
	count := 0
	var newLeader membership.NodeID = membership.NoNode
	for _, n := range c.nodes[1:] {
		if n.IsLeader(0) {
			count++
			newLeader = n.ID()
		}
	}
	if count != 1 {
		t.Fatalf("leaders after takeover = %d, want 1", count)
	}
	// Either the backup took over or (if the backup detected late) the
	// bully elected the lowest ID; both end states are legal, but the
	// system must settle on exactly one leader. Record which for clarity.
	t.Logf("backup was %v; new leader is %v", backup, newLeader)
}

// TestUpdateIdempotenceNoDuplicateEvents ensures redundant relayed updates
// do not produce duplicate join/leave events ("the operation caused by an
// update message at each node is idempotent").
func TestUpdateIdempotenceNoDuplicateEvents(t *testing.T) {
	top := topology.Clustered(3, 3)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(15 * time.Second)
	leaves := map[membership.NodeID]int{}
	watched := c.nodes[1]
	watched.Directory().AddObserver(func(e membership.Event) {
		if e.Type == membership.EventLeave {
			leaves[e.Node]++
		}
	})
	c.nodes[7].Stop()
	c.run(30 * time.Second)
	if leaves[7] != 1 {
		t.Fatalf("node 1 observed %d leave events for node 7, want exactly 1", leaves[7])
	}
}

// TestGracefulLeaveConvergesImmediately verifies a planned departure
// propagates in one relay time, not the MaxLoss detection window.
func TestGracefulLeaveConvergesImmediately(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	c.fullView(t, "before leave")

	leaveAt := c.eng.Now()
	rec := map[membership.NodeID]time.Duration{}
	for _, n := range c.nodes {
		if n.ID() == 6 {
			continue
		}
		n := n
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type == membership.EventLeave && e.Node == 6 {
				if _, ok := rec[n.ID()]; !ok {
					rec[n.ID()] = e.Time - leaveAt
				}
			}
		})
	}
	c.nodes[6].Leave()
	c.run(10 * time.Second)
	c.fullView(t, "after graceful leave")
	if len(rec) != 11 {
		t.Fatalf("%d nodes noticed the departure, want 11", len(rec))
	}
	for id, d := range rec {
		// Relay time is milliseconds; anything under one heartbeat period
		// proves the fast path (detection would take ~5s).
		if d >= cfg.HeartbeatInterval {
			t.Errorf("node %v converged in %v; graceful path not taken", id, d)
		}
	}
	// A departing leader also works: its group elects a successor.
	c.nodes[0].Leave()
	c.run(30 * time.Second)
	c.fullView(t, "after leader leave")
	if !c.nodes[1].IsLeader(0) {
		t.Error("node 1 should lead group 0 after the leader departed")
	}
}

// TestGracefulLeaveThenRestart verifies a departed node can rejoin.
func TestGracefulLeaveThenRestart(t *testing.T) {
	top := topology.FlatLAN(5)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(10 * time.Second)
	c.nodes[3].Leave()
	c.run(5 * time.Second)
	c.fullView(t, "after leave")
	c.nodes[3].Start(c.eng)
	c.run(20 * time.Second)
	c.fullView(t, "after rejoin")
}

// TestChannelOverride verifies administrator-specified per-level channels
// work end to end (the paper's "maximum control flexibility" escape hatch).
func TestChannelOverride(t *testing.T) {
	top := topology.Clustered(2, 3)
	cfg := cfgFor(top)
	cfg.ChannelOverride = map[int]netsim.ChannelID{0: 700, 1: 42}
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	c.fullView(t, "channel override")
	// The derived channels are unused; the overrides are.
	for h := 0; h < top.NumHosts(); h++ {
		ep := c.net.Endpoint(topology.HostID(h))
		if ep.Joined(cfg.BaseChannel) {
			t.Fatalf("host %d joined the derived channel despite override", h)
		}
		if !ep.Joined(700) {
			t.Fatalf("host %d not on the overridden level-0 channel", h)
		}
	}
	if !c.net.Endpoint(0).Joined(42) {
		t.Fatal("leader not on the overridden level-1 channel")
	}
}

// TestSelfLeaveIgnored ensures a (bogus) leave about ourselves does not
// remove our own entry.
func TestSelfLeaveIgnored(t *testing.T) {
	top := topology.FlatLAN(3)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(10 * time.Second)
	n1 := c.nodes[1]
	n1.applyUpdate(&wire.Update{
		ID: wire.UpdateID{Origin: 99, Counter: 1}, Kind: wire.ULeave, Subject: n1.ID(),
	}, 0, 0)
	if !n1.Directory().Has(1) {
		t.Fatal("node removed itself on a bogus leave")
	}
}

// TestDirectKnowledgeBeatsRelayedLeave: a leave about a node we can hear
// directly is ignored locally.
func TestDirectKnowledgeBeatsRelayedLeave(t *testing.T) {
	top := topology.FlatLAN(4)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(10 * time.Second)
	n1 := c.nodes[1]
	n1.applyUpdate(&wire.Update{
		ID: wire.UpdateID{Origin: 99, Counter: 2}, Kind: wire.ULeave, Subject: 2,
	}, 0, 0)
	if !n1.Directory().Has(2) {
		t.Fatal("directly heard node removed by relayed leave")
	}
}
