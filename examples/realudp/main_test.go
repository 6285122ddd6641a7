package main

import (
	"sync/atomic"
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
	udp   *udpNet
	drv   *driver
	nodes []*core.Node
}

// newRealCluster builds one node per host; the driver is not started, so
// the caller may still touch the network's fields.
func newRealCluster(t *testing.T, top *topology.Topology, hb time.Duration) *realCluster {
	t.Helper()
	drv := newDriver(sim.NewEngine(1))
	udp, err := newUDPNet(top, drv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		drv.stop()
		udp.close()
	})
	c := &realCluster{udp: udp, drv: drv}
	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	cfg.HeartbeatInterval = hb
	cfg.MaxLoss = 3
	for _, ep := range udp.eps {
		c.nodes = append(c.nodes, core.NewNode(cfg, ep))
	}
	return c
}

func (c *realCluster) startAll() {
	c.drv.start()
	c.drv.call(func() {
		for _, n := range c.nodes {
			n.Start(c.drv.eng)
		}
	})
}

// viewSizes snapshots every running node's directory size on the protocol
// goroutine; a stopped node reads -1.
func (c *realCluster) viewSizes() []int {
	var out []int
	c.drv.call(func() {
		for _, n := range c.nodes {
			if n.Running() {
				out = append(out, n.Directory().Len())
			} else {
				out = append(out, -1)
			}
		}
	})
	return out
}

func (c *realCluster) waitFull(t *testing.T, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		ok := true
		for _, s := range c.viewSizes() {
			if s >= 0 && s != want {
				ok = false
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
	c.drv.call(func() {
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

	c.drv.call(func() { c.nodes[4].Stop() })
	start := time.Now()
	end := time.Now().Add(8 * time.Second)
	for time.Now().Before(end) {
		gone := true
		c.drv.call(func() {
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
	if err := c.nodes[5].RegisterService("KV", "0-7"); err != nil {
		t.Fatalf("register: %v", err)
	}
	c.startAll()
	c.waitFull(t, 6, 8*time.Second)
	var found int
	c.drv.call(func() {
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

// TestRealUDPConvergenceUnderLoss drops 5% of deliveries at the sender; the
// protocol's recovery machinery must still converge over real sockets.
func TestRealUDPConvergenceUnderLoss(t *testing.T) {
	top := topology.Clustered(2, 3)
	c := newRealCluster(t, top, 50*time.Millisecond)
	c.udp.lossPerMille = 50
	c.startAll()
	c.waitFull(t, 6, 15*time.Second)
}

// TestSenderScopesTTL holds the filters of the real transport: the sender's
// TTL scope, subscription and up checks, and the receiver's re-check at
// delivery.
func TestSenderScopesTTL(t *testing.T) {
	top := topology.Clustered(3, 2) // hosts 0,1 | 2,3 | 4,5
	drv := newDriver(sim.NewEngine(1))
	udp, err := newUDPNet(top, drv)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.close()
	got := make([]chan []byte, top.NumHosts())
	for h, ep := range udp.eps {
		got[h] = make(chan []byte, 16)
		ep.Join(9)
		ep.SetHandler(func(pkt netsim.Packet) { got[h] <- pkt.Payload })
	}
	drv.start()
	defer drv.stop()
	expect := func(h int, want string) {
		t.Helper()
		select {
		case b := <-got[h]:
			if string(b) != want {
				t.Fatalf("host %d got %q, want %q", h, b, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("host %d missed %q", h, want)
		}
	}
	expectNone := func(h int, what string) {
		t.Helper()
		select {
		case b := <-got[h]:
			t.Fatalf("host %d got %q: %s", h, b, what)
		case <-time.After(100 * time.Millisecond):
		}
	}

	// TTL 1 from host 0 reaches host 1 only.
	drv.call(func() { udp.eps[0].Multicast(9, 1, []byte("local")) })
	expect(1, "local")
	expectNone(2, "TTL1 multicast leaked across the router")
	// The sender skips a host that left the channel (4) and a host that is
	// down (5): they come back before the delivery, so only the sender's
	// checks keep the TTL-2 multicast from them.
	drv.call(func() {
		udp.eps[4].Leave(9)
		udp.eps[5].SetUp(false)
		udp.eps[0].Multicast(9, 2, []byte("wide"))
		udp.eps[4].Join(9)
		udp.eps[5].SetUp(true)
	})
	for _, h := range []int{1, 2, 3} {
		expect(h, "wide")
	}
	expectNone(4, "the sender multicast to a host that had left the channel")
	expectNone(5, "the sender multicast to a down host")
	// The receiver re-checks at delivery: hosts that leave or go down after
	// the send, and before the driver delivers, get nothing.
	drv.call(func() {
		udp.eps[0].Multicast(9, 2, []byte("late"))
		udp.eps[4].Leave(9)
		udp.eps[5].SetUp(false)
	})
	for _, h := range []int{1, 2, 3} {
		expect(h, "late")
	}
	expectNone(4, "a host that left the channel was handed the multicast")
	expectNone(5, "a down host was handed the multicast")
	// Unicast across the router arrives. A unicast to a down host is not
	// sent, though the sender, being up, is told it went.
	drv.call(func() {
		if !udp.eps[3].Unicast(0, []byte("uni")) || !udp.eps[3].Unicast(5, []byte("down")) {
			t.Error("Unicast from an up host reported false")
		}
		udp.eps[5].SetUp(true)
	})
	expect(0, "uni")
	expectNone(5, "a unicast reached a down host")
}

func TestDriverCallRunsOnLoop(t *testing.T) {
	d := newDriver(sim.NewEngine(1))
	d.start()
	defer d.stop()
	ran := false
	d.call(func() { ran = true })
	if !ran {
		t.Fatal("call returned before fn ran")
	}
}

func TestDriverTimersFire(t *testing.T) {
	var fired atomic.Int64
	d := newDriver(sim.NewEngine(1))
	d.start()
	defer d.stop()
	d.call(func() {
		sim.NewTicker(d.eng, 0, 10*time.Millisecond, func() { fired.Add(1) })
	})
	time.Sleep(200 * time.Millisecond)
	n := fired.Load()
	// 10ms period over 200ms: expect ~20 firings, generously bounded.
	if n < 5 || n > 40 {
		t.Fatalf("ticker fired %d times in 200ms wall at 10ms period", n)
	}
}

func TestDriverStopIdempotentAndDropsInjections(t *testing.T) {
	d := newDriver(sim.NewEngine(1))
	d.start()
	d.stop()
	d.stop() // idempotent
	ran := false
	d.post(func() { ran = true }) // dropped, no deadlock
	d.call(func() { ran = true }) // returns promptly, no deadlock
	if ran {
		t.Fatal("fn ran after stop")
	}
}

func TestDriverStartIdempotent(t *testing.T) {
	d := newDriver(sim.NewEngine(1))
	d.start()
	d.start()
	defer d.stop()
	count := 0
	for i := 0; i < 100; i++ {
		d.call(func() { count++ })
	}
	if count != 100 {
		t.Fatalf("count = %d; double start corrupted the loop", count)
	}
}
