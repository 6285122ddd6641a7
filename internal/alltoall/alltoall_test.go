package alltoall

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newCluster(top *topology.Topology) (*sim.Engine, *netsim.Network, []*Node) {
	eng := sim.NewEngine(11)
	net := netsim.New(eng, top)
	cfg := DefaultConfig()
	cfg.TTL = top.Diameter()
	var nodes []*Node
	for h := 0; h < top.NumHosts(); h++ {
		nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return eng, net, nodes
}

func TestConvergence(t *testing.T) {
	eng, _, nodes := newCluster(topology.Clustered(3, 5))
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	for _, n := range nodes {
		if n.Directory().Len() != len(nodes) {
			t.Fatalf("node %v sees %d members, want %d", n.ID(), n.Directory().Len(), len(nodes))
		}
	}
}

func TestFailureDetectionTiming(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(10))
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
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
				detect[n.ID()] = e.Time - killAt
			}
		})
	}
	eng.Run(eng.Now() + 15*time.Second)
	if len(detect) != 9 {
		t.Fatalf("%d nodes detected, want 9", len(detect))
	}
	for id, d := range detect {
		if d < deadAfter-heartbeatInterval || d > deadAfter+2*heartbeatInterval {
			t.Errorf("node %v detected at %v, want about %v", id, d, deadAfter)
		}
	}
}

func TestQuadraticReceiveRate(t *testing.T) {
	run := func(n int) float64 {
		eng, net, nodes := newCluster(topology.FlatLAN(n))
		for _, nd := range nodes {
			nd.Start(eng)
		}
		eng.Run(5 * time.Second)
		net.ResetStats()
		eng.Run(eng.Now() + 10*time.Second)
		return float64(net.TotalStats().PktsRecv)
	}
	small, big := run(5), run(10)
	// Aggregate receive count ~ N*(N-1): 10 nodes should see ~4.5x the
	// packets of 5 nodes.
	ratio := big / small
	if ratio < 3.5 || ratio > 5.5 {
		t.Fatalf("receive ratio = %.2f, want about 4.5 (quadratic)", ratio)
	}
}

func TestRejoinAfterStop(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(4))
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	nodes[2].Stop()
	eng.Run(eng.Now() + 10*time.Second)
	for i, n := range nodes {
		if i == 2 {
			continue
		}
		if n.Directory().Has(2) {
			t.Fatalf("node %v still lists stopped node", n.ID())
		}
	}
	nodes[2].Start(eng)
	eng.Run(eng.Now() + 5*time.Second)
	for _, n := range nodes {
		if n.Directory().Len() != 4 {
			t.Fatalf("node %v sees %d after rejoin, want 4", n.ID(), n.Directory().Len())
		}
	}
}

func TestServiceInfoInHeartbeats(t *testing.T) {
	eng, _, nodes := newCluster(topology.FlatLAN(3))
	if err := nodes[1].RegisterService("Cache", "0-2"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	got, err := nodes[0].Directory().Lookup("Cache", "1")
	if err != nil || len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	nodes[1].UpdateValue("load", "3")
	eng.Run(eng.Now() + 3*time.Second)
	dir := nodes[2].Directory()
	info := dir.Info(dir.Get(1))
	if v, _ := info.Attr("load"); v != "3" {
		t.Fatalf("attr did not propagate: %q", v)
	}
}
