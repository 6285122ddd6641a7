package realnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// realCluster runs the hierarchical protocol over real UDP loopback.
type realCluster struct {
	hub   *Hub
	drv   *Driver
	eps   []*Endpoint
	nodes []*core.Node
}

func newRealCluster(t *testing.T, top *topology.Topology, hb time.Duration) *realCluster {
	t.Helper()
	hub, err := NewHub(top)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(sim.NewEngine(1), time.Millisecond)
	c := &realCluster{hub: hub, drv: drv}
	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	cfg.HeartbeatInterval = hb
	cfg.MaxLoss = 3
	for h := 0; h < top.NumHosts(); h++ {
		ep, err := NewEndpoint(hub, drv, topology.HostID(h))
		if err != nil {
			t.Fatal(err)
		}
		c.eps = append(c.eps, ep)
		c.nodes = append(c.nodes, core.NewNode(cfg, ep))
	}
	t.Cleanup(func() {
		drv.Stop()
		for _, ep := range c.eps {
			ep.Close()
		}
		hub.Close()
	})
	drv.Start()
	return c
}

func (c *realCluster) startAll() {
	c.drv.Start()
	c.drv.Call(func() {
		for _, n := range c.nodes {
			n.Start(c.drv.Engine())
		}
	})
}

// viewSizes snapshots every node's directory size on the protocol
// goroutine.
func (c *realCluster) viewSizes() []int {
	var out []int
	c.drv.Call(func() {
		for _, n := range c.nodes {
			out = append(out, n.Directory().Len())
		}
	})
	return out
}

func (c *realCluster) waitFull(t *testing.T, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		sizes := c.viewSizes()
		ok := true
		for i, s := range sizes {
			running := false
			c.drv.Call(func() { running = c.nodes[i].Running() })
			if running && s != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("views did not reach %d within %v: %v", want, deadline, c.viewSizes())
}

// TestRealUDPConvergence runs 9 nodes in 3 groups over real loopback UDP
// with 50ms heartbeats and expects full views within a few wall seconds.
func TestRealUDPConvergence(t *testing.T) {
	top := topology.Clustered(3, 3)
	c := newRealCluster(t, top, 50*time.Millisecond)
	c.startAll()
	c.waitFull(t, 9, 8*time.Second)

	// Leaders are the lowest IDs per group.
	c.drv.Call(func() {
		for _, lead := range []int{0, 3, 6} {
			if !c.nodes[lead].IsLeader(0) {
				t.Errorf("node %d should lead its group", lead)
			}
		}
	})
}

// TestRealUDPFailureDetection kills one daemon and expects every survivor
// to drop it within MaxLoss heartbeats plus slack.
func TestRealUDPFailureDetection(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newRealCluster(t, top, 50*time.Millisecond)
	c.startAll()
	c.waitFull(t, 6, 8*time.Second)

	c.drv.Call(func() { c.nodes[4].Stop() })
	start := time.Now()
	end := time.Now().Add(8 * time.Second)
	for time.Now().Before(end) {
		gone := true
		c.drv.Call(func() {
			for i, n := range c.nodes {
				if i != 4 && n.Directory().Has(membership.NodeID(4)) {
					gone = false
				}
			}
		})
		if gone {
			detect := time.Since(start)
			// MaxLoss(3) x 50ms = 150ms nominal; generous wall-clock
			// slack for scheduler noise.
			if detect > 5*time.Second {
				t.Fatalf("detection took %v", detect)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("failure never detected over real UDP")
}

// TestRealUDPServicePublication registers a service and looks it up from
// another group across the real transport.
func TestRealUDPServicePublication(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newRealCluster(t, top, 50*time.Millisecond)
	c.drv.Call(func() {
		if err := c.nodes[5].RegisterService("KV", "0-7"); err != nil {
			t.Errorf("register: %v", err)
		}
	})
	c.startAll()
	c.waitFull(t, 6, 8*time.Second)
	var found int
	c.drv.Call(func() {
		got, err := c.nodes[0].Directory().Lookup("KV", "3")
		if err != nil {
			t.Errorf("lookup: %v", err)
		}
		found = len(got)
	})
	if found != 1 {
		t.Fatalf("lookup found %d providers, want 1", found)
	}
}

// TestRealUDPConvergenceUnderLoss injects 5% loss at the hub; the
// protocol's recovery machinery must still converge over real sockets.
func TestRealUDPConvergenceUnderLoss(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newRealCluster(t, top, 50*time.Millisecond)
	c.hub.setLossProbability(0.05)
	c.startAll()
	c.waitFull(t, 6, 15*time.Second)
}

// TestHubScopesTTL verifies TTL scoping over the real transport directly.
func TestHubScopesTTL(t *testing.T) {
	top := topology.Clustered(2, 2) // hosts 0,1 | 2,3
	hub, err := NewHub(top)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	drv := NewDriver(sim.NewEngine(1), time.Millisecond)
	drv.Start()
	defer drv.Stop()

	var eps []*Endpoint
	got := make([]chan []byte, 4)
	for h := 0; h < 4; h++ {
		h := h
		ep, err := NewEndpoint(hub, drv, topology.HostID(h))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		got[h] = make(chan []byte, 16)
		ep.Join(9)
		ep.SetHandler(func(pkt netsim.Packet) {
			got[h] <- pkt.Payload
		})
		eps = append(eps, ep)
	}
	// TTL 1 from host 0 reaches host 1 only.
	eps[0].Multicast(9, 1, []byte("local"))
	select {
	case b := <-got[1]:
		if string(b) != "local" {
			t.Fatalf("payload %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("same-switch host missed TTL1 multicast")
	}
	select {
	case <-got[2]:
		t.Fatal("TTL1 multicast leaked across the router")
	case <-time.After(100 * time.Millisecond):
	}
	// TTL 2 reaches everyone subscribed.
	eps[0].Multicast(9, 2, []byte("wide"))
	for _, h := range []int{1, 2, 3} {
		select {
		case <-got[h]:
		case <-time.After(2 * time.Second):
			t.Fatalf("host %d missed TTL2 multicast", h)
		}
	}
	// Unicast across the router.
	eps[3].Unicast(0, []byte("uni"))
	select {
	case b := <-got[0]:
		if string(b) != "uni" {
			t.Fatalf("payload %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unicast lost")
	}
}
