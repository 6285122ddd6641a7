package gossip

import (
	"math"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newCluster(top *topology.Topology, seed int64) (*sim.Engine, *netsim.Network, []*Node) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, top)
	cfg := DefaultConfig()
	cfg.ExpectedSize = top.NumHosts()
	for h := 0; h < top.NumHosts(); h++ {
		cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
	}
	var nodes []*Node
	for h := 0; h < top.NumHosts(); h++ {
		nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return eng, net, nodes
}

func TestConvergence(t *testing.T) {
	eng, _, nodes := newCluster(topology.Clustered(3, 5), 3)
	for _, n := range nodes {
		n.Start(eng)
	}
	// Gossip needs O(log N) rounds to disseminate; give it plenty.
	eng.Run(30 * time.Second)
	for _, n := range nodes {
		if n.Directory().Len() != len(nodes) {
			t.Fatalf("node %v sees %d members, want %d", n.ID(), n.Directory().Len(), len(nodes))
		}
	}
}

func TestFailureDetectionSlowerThanHeartbeat(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(20), 5)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(30 * time.Second)
	killAt := eng.Now()
	nodes[7].Stop()
	detect := map[membership.NodeID]time.Duration{}
	for _, n := range nodes {
		if n == nodes[7] {
			continue
		}
		n := n
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type == membership.EventLeave && e.Node == 7 {
				if _, ok := detect[n.ID()]; !ok {
					detect[n.ID()] = e.Time - killAt
				}
			}
		})
	}
	eng.Run(eng.Now() + 2*time.Minute)
	if len(detect) != 19 {
		t.Fatalf("%d nodes detected, want 19", len(detect))
	}
	tf := nodes[0].FailTimeout()
	var earliest, latest time.Duration = time.Hour, 0
	for _, d := range detect {
		if d < earliest {
			earliest = d
		}
		if d > latest {
			latest = d
		}
	}
	// Detection cannot be faster than the fail timeout, and convergence
	// should finish within a few dissemination rounds after it.
	if earliest < tf-time.Second {
		t.Errorf("earliest detection %v before fail timeout %v", earliest, tf)
	}
	if latest > tf+tf {
		t.Errorf("latest detection %v too slow (tf=%v)", latest, tf)
	}
}

func TestNoFalseFailuresSteadyState(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(15), 9)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(30 * time.Second)
	mistakes := 0
	for _, n := range nodes {
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type == membership.EventLeave {
				mistakes++
			}
		})
	}
	eng.Run(eng.Now() + 2*time.Minute)
	if mistakes != 0 {
		t.Fatalf("%d erroneous failure declarations in steady state", mistakes)
	}
}

func TestMessageSizeGrowsWithView(t *testing.T) {
	size := func(n int) float64 {
		eng, net, nodes := newCluster(topology.FlatLAN(n), 13)
		for _, nd := range nodes {
			nd.Start(eng)
		}
		eng.Run(30 * time.Second)
		net.ResetStats()
		eng.Run(eng.Now() + 20*time.Second)
		st := net.TotalStats()
		return float64(st.BytesSent) / float64(st.PktsSent)
	}
	small, big := size(5), size(15)
	if big < 2*small {
		t.Fatalf("mean gossip packet size went %0.f -> %0.f; want ~linear growth in view size", small, big)
	}
}

func TestFailTimeoutFormula(t *testing.T) {
	iv := gossipInterval
	t20 := FailTimeoutFor(20)
	t100 := FailTimeoutFor(100)
	t1000 := FailTimeoutFor(1000)
	if !(t20 < t100 && t100 < t1000) {
		t.Fatalf("fail timeout not increasing: %v %v %v", t20, t100, t1000)
	}
	// Logarithmic shape: doubling N adds roughly a constant.
	g1 := float64(t100-t20) / float64(iv)
	g2 := float64(t1000-t100) / float64(iv)
	if g2 > 4*g1+4 {
		t.Fatalf("growth looks super-logarithmic: +%v then +%v", g1, g2)
	}
	// A degenerate size falls back sanely.
	if FailTimeoutFor(0) <= 0 {
		t.Fatal("degenerate size produced non-positive timeout")
	}
	// The minimum floor applies.
	if FailTimeoutFor(1000) < time.Duration(math.Ceil(2*math.Log2(1000)))*iv {
		t.Fatal("floor not applied")
	}
}

func TestRejoinAfterFailure(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(8), 21)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(30 * time.Second)
	nodes[3].Stop()
	eng.Run(eng.Now() + 3*nodes[0].FailTimeout())
	for i, n := range nodes {
		if i != 3 && n.Directory().Has(3) {
			t.Fatalf("node %v still lists dead node", n.ID())
		}
	}
	nodes[3].Start(eng)
	eng.Run(eng.Now() + time.Minute)
	for _, n := range nodes {
		if n.Directory().Len() != 8 {
			t.Fatalf("node %v sees %d after rejoin, want 8", n.ID(), n.Directory().Len())
		}
	}
}

func TestUnicastOnlyNoMulticast(t *testing.T) {
	eng, net, nodes := newCluster(topology.FlatLAN(5), 2)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(10 * time.Second)
	if net.TotalStats().MulticastCopies != 0 {
		t.Fatal("gossip used multicast")
	}
}
