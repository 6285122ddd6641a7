package core

import (
	"testing"
	"time"

	"repro/internal/topology"
)

func adaptiveCfgFor(top *topology.Topology) Config {
	cfg := AdaptiveDefaults()
	cfg.MaxTTL = top.Diameter()
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	return cfg
}

// leadersOn returns the nodes claiming level-0 leadership on a channel.
func leadersOn(nodes []*Node, ch int) []*Node {
	var out []*Node
	for _, n := range nodes {
		if n.Running() && n.Level0Channel() == ch && n.IsLeader(0) {
			out = append(out, n)
		}
	}
	return out
}

// TestAdaptiveShedOnWatermark pins the abdication state machine: a level-0
// leader whose load stays over the watermark for the load window hands
// leadership off and stops leading, and the group converges on exactly one
// successor.
func TestAdaptiveShedOnWatermark(t *testing.T) {
	top := topology.Clustered(2, 8)
	cfg := adaptiveCfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	lead := c.nodes[0]
	if !lead.IsLeader(0) {
		t.Fatal("node 0 should lead its group before the fault")
	}

	lead.SetHotLoad(64) // load 64+members > watermark 12
	c.run(cfg.beats(loadWindowBeats) + 10*time.Second)
	if lead.IsLeader(0) {
		t.Fatalf("overloaded leader still leads after the load window (load=%d, watermark=%d)",
			lead.Load(), cfg.loadWatermark())
	}
	if sheds := lead.Stats().LoadSheds; sheds == 0 {
		t.Error("shed not counted in Stats.LoadSheds")
	}
	ls := leadersOn(c.nodes[:8], lead.Level0Channel())
	if len(ls) != 1 {
		t.Fatalf("group has %d leaders after the shed, want 1", len(ls))
	}
	if ls[0] == lead {
		t.Fatal("hot node re-took leadership")
	}
}

// TestAdaptiveSuccessorLeastLoaded pins the successor choice: the shedding
// leader picks the least-loaded member by the pushed load reports, not the
// lowest ID.
func TestAdaptiveSuccessorLeastLoaded(t *testing.T) {
	top := topology.Clustered(2, 8)
	cfg := adaptiveCfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)

	// Nodes 1-3 carry some (sub-watermark) load, so the handoff must skip
	// them even though they have the lowest IDs.
	for _, i := range []int{1, 2, 3} {
		c.nodes[i].SetHotLoad(5)
	}
	c.run(3 * time.Second) // let the load reports reach the leader's cache
	c.nodes[0].SetHotLoad(64)
	c.run(cfg.beats(loadWindowBeats) + 10*time.Second)

	ls := leadersOn(c.nodes[:8], c.nodes[0].Level0Channel())
	if len(ls) != 1 {
		t.Fatalf("group has %d leaders after the shed, want 1", len(ls))
	}
	if got := int(ls[0].ID()); got != 4 {
		t.Errorf("successor is node %d, want least-loaded node 4", got)
	}
}

// TestAdaptiveStaticNeverSheds pins the static scheme's behavior under the
// same overload: with Adaptive off the watermark is zero, so any hot load
// starves the relay duties, but leadership never moves.
func TestAdaptiveStaticNeverSheds(t *testing.T) {
	top := topology.Clustered(2, 8)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	lead := c.nodes[0]
	lead.SetHotLoad(64)
	c.run(30 * time.Second)
	if !lead.IsLeader(0) {
		t.Fatal("static hot leader lost leadership; shedding must be adaptive-only")
	}
	if lead.Stats().RelaysStarved == 0 {
		t.Error("static hot leader starved no relay duties")
	}
	if lead.Stats().LoadSheds != 0 {
		t.Error("static node counted a load shed")
	}
}

// TestAdaptiveSplitOversizedGroup pins the split state machine: a single
// 16-host segment is over GroupMax=12, so after the reform hold the leader
// moves the upper half onto a fresh channel, leaving two in-bounds groups
// with one leader each, and the movers remember their parent channel.
func TestAdaptiveSplitOversizedGroup(t *testing.T) {
	top := topology.FlatLAN(16)
	cfg := adaptiveCfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(30 * time.Second)

	byChan := map[int][]*Node{}
	for _, n := range c.nodes {
		byChan[n.Level0Channel()] = append(byChan[n.Level0Channel()], n)
	}
	if len(byChan) != 2 {
		t.Fatalf("got %d level-0 channels, want 2 after the split", len(byChan))
	}
	for ch, members := range byChan {
		if len(members) < GroupMin || len(members) > GroupMax {
			t.Errorf("channel %d has %d members, want within [%d,%d]",
				ch, len(members), GroupMin, GroupMax)
		}
		if ls := leadersOn(c.nodes, ch); len(ls) != 1 {
			t.Errorf("channel %d has %d leaders, want 1", ch, len(ls))
		}
	}
	// The stayers keep the configured channel with no parent; the movers
	// carry it as their parent.
	home := int(cfg.channel(0))
	for _, n := range c.nodes {
		if n.Level0Channel() == home {
			if n.Level0Parent() != 0 {
				t.Errorf("stayer %v has parent channel %d", n.ID(), n.Level0Parent())
			}
		} else if n.Level0Parent() != home {
			t.Errorf("mover %v parent channel = %d, want %d", n.ID(), n.Level0Parent(), home)
		}
	}
}

// TestAdaptiveMergeUndersizedGroup pins the merge state machine: when a
// split-off group is whittled below GroupMin, its leader folds the
// survivors back into the parent channel.
func TestAdaptiveMergeUndersizedGroup(t *testing.T) {
	top := topology.FlatLAN(16)
	cfg := adaptiveCfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(30 * time.Second) // bootstrap + split

	home := int(cfg.channel(0))
	var movers []*Node
	for _, n := range c.nodes {
		if n.Level0Channel() != home {
			movers = append(movers, n)
		}
	}
	if len(movers) < GroupMin+1 {
		t.Fatalf("split did not happen: %d movers", len(movers))
	}
	// Kill movers until one remains: 1 < GroupMin=2 forces the merge.
	for _, n := range movers[1:] {
		n.Stop()
	}
	c.run(cfg.DeadAfterLevel(0) + cfg.beats(reformHoldBeats) + 15*time.Second)

	last := movers[0]
	if got := last.Level0Channel(); got != home {
		t.Fatalf("survivor still on channel %d, want parent %d", got, home)
	}
	if last.Level0Parent() != 0 {
		t.Errorf("merged survivor kept parent channel %d", last.Level0Parent())
	}
	if ls := leadersOn(c.nodes, home); len(ls) != 1 {
		t.Errorf("merged group has %d leaders, want 1", len(ls))
	}
}

// TestAdaptiveConfigValidation pins the adaptive configuration's
// validation: re-formation needs a channel base, and one colliding with the
// level ladder must be rejected.
func TestAdaptiveConfigValidation(t *testing.T) {
	ok := AdaptiveDefaults()
	ok.MaxTTL = 2
	if err := ok.Validate(); err != nil {
		t.Fatalf("AdaptiveDefaults rejected: %v", err)
	}
	bad := ok
	bad.ReformChannelBase = 0
	if bad.Validate() == nil {
		t.Error("adaptive config without a reform channel base accepted")
	}
	bad.ReformChannelBase = ok.channel(1)
	if bad.Validate() == nil {
		t.Error("reform channel base on the level ladder accepted")
	}
}
