package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testCluster wires one core.Node per host of a topology.
type testCluster struct {
	eng   *sim.Engine
	net   *netsim.Network
	nodes []*Node
}

func newCluster(top *topology.Topology, cfg Config) *testCluster {
	eng := sim.NewEngine(7)
	net := netsim.New(eng, top)
	c := &testCluster{eng: eng, net: net}
	for h := 0; h < top.NumHosts(); h++ {
		c.nodes = append(c.nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return c
}

func (c *testCluster) startAll() {
	for _, n := range c.nodes {
		n.Start(c.eng)
	}
}

func (c *testCluster) run(d time.Duration) { c.eng.Run(c.eng.Now() + d) }

// fullView checks that every running node's view contains exactly the
// running nodes.
func (c *testCluster) fullView(t *testing.T, context string) {
	t.Helper()
	var want []membership.NodeID
	for _, n := range c.nodes {
		if n.Running() {
			want = append(want, n.ID())
		}
	}
	for _, n := range c.nodes {
		if !n.Running() {
			continue
		}
		got := n.Directory().View()
		if !membership.ViewEqual(got, want) {
			t.Fatalf("%s: node %v view = %v, want %v", context, n.ID(), got, want)
		}
	}
}

func cfgFor(top *topology.Topology) Config {
	cfg := DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	return cfg
}

func TestFlatLANConvergence(t *testing.T) {
	top := topology.FlatLAN(8)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(10 * time.Second)
	c.fullView(t, "flat LAN after 10s")
	// Exactly one leader: the lowest ID.
	leaders := 0
	for _, n := range c.nodes {
		if n.IsLeader(0) {
			leaders++
			if n.ID() != 0 {
				t.Errorf("leader is %v, want lowest ID 0", n.ID())
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("level-0 leaders = %d, want 1", leaders)
	}
}

func TestClusteredConvergenceAndLeaders(t *testing.T) {
	top := topology.Clustered(5, 4) // 20 nodes, groups of 4
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(15 * time.Second)
	c.fullView(t, "clustered after 15s")
	// Each switch group's lowest ID leads level 0 and has joined level 1.
	for g := 0; g < 5; g++ {
		lead := c.nodes[g*4]
		if !lead.IsLeader(0) {
			t.Errorf("node %v should lead its level-0 group", lead.ID())
		}
		for i := 1; i < 4; i++ {
			if c.nodes[g*4+i].IsLeader(0) {
				t.Errorf("node %v should not lead level 0", c.nodes[g*4+i].ID())
			}
		}
	}
	// Exactly one level-1 leader among the group leaders: node 0.
	l1 := 0
	for _, n := range c.nodes {
		if n.IsLeader(1) {
			l1++
			if n.ID() != 0 {
				t.Errorf("level-1 leader = %v, want 0", n.ID())
			}
		}
	}
	if l1 != 1 {
		t.Fatalf("level-1 leaders = %d, want 1", l1)
	}
}

func TestFailureDetectionAndConvergence(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	c.fullView(t, "before failure")

	victim := c.nodes[6] // mid-group member, not a leader
	if victim.IsLeader(0) {
		t.Fatal("test assumes node 6 is not a leader")
	}
	killAt := c.eng.Now()
	victim.Stop()

	// Record when each survivor notices.
	detect := map[membership.NodeID]time.Duration{}
	for _, n := range c.nodes {
		if n == victim {
			continue
		}
		n := n
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type == membership.EventLeave && e.Node == victim.ID() {
				if _, ok := detect[n.ID()]; !ok {
					detect[n.ID()] = e.Time - killAt
				}
			}
		})
	}
	c.run(30 * time.Second)
	c.fullView(t, "after failure")
	if len(detect) != len(c.nodes)-1 {
		t.Fatalf("only %d of %d survivors noticed the failure", len(detect), len(c.nodes)-1)
	}
	var min, max time.Duration = time.Hour, 0
	for _, d := range detect {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Detection should be about MaxLoss heartbeats; convergence shortly
	// after (tree propagation).
	lo := cfg.DeadAfter() - cfg.HeartbeatInterval
	hi := cfg.DeadAfter() + 4*cfg.HeartbeatInterval
	if min < lo || min > hi {
		t.Errorf("first detection at %v, want within [%v, %v]", min, lo, hi)
	}
	if max > cfg.DeadAfter()+6*cfg.HeartbeatInterval {
		t.Errorf("slowest convergence %v too large", max)
	}
}

func TestLateJoinerBootstraps(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newCluster(top, cfgFor(top))
	late := c.nodes[4]
	for _, n := range c.nodes {
		if n != late {
			n.Start(c.eng)
		}
	}
	c.run(12 * time.Second)
	late.Start(c.eng)
	c.run(10 * time.Second)
	c.fullView(t, "after late join")
	// The late joiner must know nodes outside its own group, which only
	// bootstrap/updates can deliver.
	if !late.Directory().Has(0) {
		t.Fatal("late joiner missing remote node 0")
	}
}

func TestLeaderFailureRecovery(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	leader := c.nodes[0] // leads group 0 and level 1
	if !leader.IsLeader(0) || !leader.IsLeader(1) {
		t.Fatal("node 0 should lead levels 0 and 1")
	}
	leader.Stop()
	c.run(40 * time.Second)
	c.fullView(t, "after leader failure")
	// A new leader must have emerged in group 0 and at level 1.
	l0 := 0
	for _, n := range c.nodes[1:4] {
		if n.IsLeader(0) {
			l0++
		}
	}
	if l0 != 1 {
		t.Fatalf("group-0 leaders after failure = %d, want 1", l0)
	}
}

func TestUpdateValuePropagates(t *testing.T) {
	top := topology.Clustered(3, 3)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(15 * time.Second)
	c.nodes[4].UpdateValue("load", "heavy")
	c.run(10 * time.Second)
	for _, n := range c.nodes {
		e := n.Directory().Get(4)
		if e == nil {
			t.Fatalf("node %v lost node 4", n.ID())
		}
		info := n.Directory().Info(e)
		if v, ok := info.Attr("load"); !ok || v != "heavy" {
			t.Fatalf("node %v sees load=%q, want heavy", n.ID(), v)
		}
	}
}

func TestServiceRegistrationVisibleClusterWide(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newCluster(top, cfgFor(top))
	if err := c.nodes[5].RegisterService("Retriever", "1-3", membership.KV{Key: "Port", Value: "9090"}); err != nil {
		t.Fatal(err)
	}
	c.startAll()
	c.run(15 * time.Second)
	for _, n := range c.nodes {
		got, err := n.Directory().Lookup("Retriever", "2")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Node != 5 {
			t.Fatalf("node %v lookup = %+v", n.ID(), got)
		}
	}
}

func TestConvergenceUnderPacketLoss(t *testing.T) {
	top := topology.Clustered(3, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.net.SetLossProbability(0.05)
	c.startAll()
	c.run(25 * time.Second)
	c.fullView(t, "lossy convergence")
	victim := c.nodes[7]
	victim.Stop()
	// Worst case: the leave update (and all its piggybacked copies) is
	// lost toward some node and no follow-on update traffic re-carries
	// it; the liveness-TTL purge then bounds staleness at RelayedTTL plus
	// one scan period (~45s by default).
	c.run(50 * time.Second)
	c.fullView(t, "lossy failure convergence")
}

func TestRestartBumpsIncarnation(t *testing.T) {
	top := topology.FlatLAN(4)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(10 * time.Second)
	n3 := c.nodes[3]
	inc := n3.Info().Incarnation
	n3.Stop()
	c.run(15 * time.Second)
	c.fullView(t, "after stop")
	n3.Start(c.eng)
	if n3.Info().Incarnation != inc+1 {
		t.Fatalf("incarnation = %d, want %d", n3.Info().Incarnation, inc+1)
	}
	c.run(15 * time.Second)
	c.fullView(t, "after restart")
}

func TestStopIsIdempotentAndStartAfterStop(t *testing.T) {
	top := topology.FlatLAN(3)
	c := newCluster(top, cfgFor(top))
	c.startAll()
	c.run(5 * time.Second)
	c.nodes[1].Stop()
	c.nodes[1].Stop()
	c.nodes[1].Start(c.eng)
	c.nodes[1].Start(c.eng)
	c.run(10 * time.Second)
	c.fullView(t, "restart cycle")
}

func TestViewsConsistentAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		top := topology.Clustered(2, 4)
		eng := sim.NewEngine(seed)
		net := netsim.New(eng, top)
		var nodes []*Node
		cfg := cfgFor(top)
		for h := 0; h < top.NumHosts(); h++ {
			nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
		}
		for _, n := range nodes {
			n.Start(eng)
		}
		eng.Run(15 * time.Second)
		for _, n := range nodes {
			if n.Directory().Len() != len(nodes) {
				t.Fatalf("seed %d: node %v sees %d nodes, want %d", seed, n.ID(), n.Directory().Len(), len(nodes))
			}
		}
	}
}

func TestBandwidthScalesLinearlyWithGroups(t *testing.T) {
	// The headline scalability property: with fixed group size, per-node
	// receive bandwidth stays roughly constant as groups are added,
	// because heartbeats are scoped to groups.
	perNode := func(groups int) float64 {
		top := topology.Clustered(groups, 5)
		c := newCluster(top, cfgFor(top))
		c.startAll()
		c.run(10 * time.Second)
		c.net.ResetStats()
		c.run(20 * time.Second)
		return float64(c.net.TotalStats().BytesRecv) / float64(top.NumHosts())
	}
	small, large := perNode(2), perNode(6)
	if large > small*2.0 {
		t.Fatalf("per-node bandwidth grew %vx from 2 to 6 groups (small=%.0f large=%.0f)",
			large/small, small, large)
	}
}

func TestNamesAreUseful(t *testing.T) {
	// Guard against accidentally renumbering: NodeID strings used in logs.
	if fmt.Sprint(membership.NodeID(3)) != "n3" {
		t.Fatal("NodeID format changed")
	}
}
