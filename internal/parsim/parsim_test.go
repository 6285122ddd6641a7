package parsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig builds a partitioned network over a Clustered topology (single DC, so
// LPs are the level-0 groups) and a coordinator with the given worker count.
func rig(t testing.TB, groups, perGroup, workers int) (*Coordinator, *netsim.Network, *topology.Partition) {
	top := topology.Clustered(groups, perGroup)
	part := top.LPPartition()
	if part.NumLPs() != groups {
		t.Fatalf("expected %d LPs, got %d", groups, part.NumLPs())
	}
	if part.Lookahead <= 0 {
		t.Fatalf("no lookahead on a %d-group topology", groups)
	}
	engs := make([]*sim.Engine, part.NumLPs())
	for i := range engs {
		engs[i] = sim.NewEngine(int64(1000 + i))
	}
	net := netsim.New(engs[0], top)
	net.EnablePartition(part.LPOf, engs, workers)
	c := New(Config{Engines: engs, Net: net, Lookahead: part.Lookahead, Workers: workers})
	return c, net, part
}

// TestBoundaryActionsRunAtExactTime checks the Scheduler contract: actions
// fire at their exact virtual time, in (time, FIFO) order, with every LP
// engine's clock equal to the coordinator's, and a stopped action never
// fires.
func TestBoundaryActionsRunAtExactTime(t *testing.T) {
	c, _, _ := rig(t, 3, 2, 2)
	var order []string
	note := func(tag string, at time.Duration) {
		if c.Now() != at {
			t.Errorf("%s ran at %v, want %v", tag, c.Now(), at)
		}
		for lp := 0; lp < len(c.engs); lp++ {
			if got := c.engs[lp].Now(); got != at {
				t.Errorf("%s: LP %d clock %v, want %v", tag, lp, got, at)
			}
		}
		order = append(order, tag)
	}
	var late *sim.Timer
	c.ScheduleAt(5*time.Millisecond, func() { note("b", 5*time.Millisecond) })
	c.ScheduleAt(5*time.Millisecond, func() {
		note("c", 5*time.Millisecond)
		// Nested zero-delay actions run in the same boundary batch, after
		// every action already queued for the instant.
		c.Schedule(0, func() { note("e", 5*time.Millisecond) })
		// A same-instant action not yet run can still be cancelled.
		if !late.Stop() {
			t.Error("Stop on a pending same-instant action reported false")
		}
	})
	c.ScheduleAt(5*time.Millisecond, func() { note("d", 5*time.Millisecond) })
	late = c.ScheduleAt(5*time.Millisecond, func() { note("late", 5*time.Millisecond) })
	c.Schedule(2*time.Millisecond, func() { note("a", 2*time.Millisecond) })
	stopped := c.Schedule(3*time.Millisecond, func() { note("stopped", 3*time.Millisecond) })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("a boundary action's timer does not cancel")
	}
	c.Run(10 * time.Millisecond)
	if got, want := fmt.Sprint(order), "[a b c d e]"; got != want {
		t.Fatalf("boundary order %s, want %s", got, want)
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("final Now %v", c.Now())
	}
	for lp := 0; lp < len(c.engs); lp++ {
		if got := c.engs[lp].Now(); got != 10*time.Millisecond {
			t.Fatalf("LP %d final clock %v", lp, got)
		}
	}
	// The next Run starts from the horizon the last one left.
	c.Schedule(0, func() { note("f", 10*time.Millisecond) })
	c.Run(20 * time.Millisecond)
	if got, want := fmt.Sprint(order), "[a b c d e f]"; got != want {
		t.Fatalf("boundary order after a second Run %s, want %s", got, want)
	}
}

// TestCrossLPArrivalTimes checks that a cross-LP unicast arrives at exactly
// the topology latency (no jitter configured) even though it crossed a
// window boundary, and that an intra-LP unicast is unaffected by
// partitioned mode.
func TestCrossLPArrivalTimes(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		c, net, _ := rig(t, 3, 2, workers)
		wantCross, _ := net.Topology().UnicastPath(0, 2) // LP0 -> LP1
		wantLocal, _ := net.Topology().UnicastPath(0, 1) // within LP0
		if wantCross <= 0 || wantLocal <= 0 {
			t.Fatalf("bad paths: cross=%v local=%v", wantCross, wantLocal)
		}
		var gotCross, gotLocal time.Duration
		net.Endpoint(2).SetHandler(func(netsim.Packet) { gotCross = c.engs[1].Now() })
		net.Endpoint(1).SetHandler(func(netsim.Packet) { gotLocal = c.engs[0].Now() })
		send := 3 * time.Millisecond
		c.ScheduleAt(send, func() {
			net.Endpoint(0).Unicast(2, []byte("x"))
			net.Endpoint(0).Unicast(1, []byte("y"))
		})
		c.Run(send + wantCross + wantLocal + time.Second)
		if gotCross != send+wantCross {
			t.Errorf("workers=%d: cross-LP arrival %v, want %v", workers, gotCross, send+wantCross)
		}
		if gotLocal != send+wantLocal {
			t.Errorf("workers=%d: intra-LP arrival %v, want %v", workers, gotLocal, send+wantLocal)
		}
	}
}

// TestSimultaneousArrivalTieBreak sends one packet from LP0 and one from
// LP1 to the same host in LP2, timed to arrive at the identical virtual
// instant. The delivery order must be source-LP ascending for every worker
// count — the drain order that makes engine sequence stamps
// LP-count-invariant.
func TestSimultaneousArrivalTieBreak(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 3} {
		c, net, _ := rig(t, 3, 2, workers)
		var order []byte
		net.Endpoint(4).SetHandler(func(p netsim.Packet) { order = append(order, p.Payload[0]) })
		lat02, _ := net.Topology().UnicastPath(0, 4)
		lat24, _ := net.Topology().UnicastPath(2, 4)
		if lat02 != lat24 {
			t.Fatalf("asymmetric cross latencies %v vs %v break the setup", lat02, lat24)
		}
		c.ScheduleAt(time.Millisecond, func() {
			// Send from the higher LP first: arrival order must still be
			// source-LP ascending, not send order.
			net.Endpoint(2).Unicast(4, []byte("B"))
			net.Endpoint(0).Unicast(4, []byte("A"))
		})
		c.Run(time.Millisecond + lat02 + time.Second)
		got := string(order)
		if got != "AB" {
			t.Errorf("workers=%d: delivery order %q, want AB (source-LP ascending)", workers, got)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("tie-break order changed with workers=%d: %q vs %q", workers, got, want)
		}
	}
}

// BenchmarkParsimBoundaryExchange measures the window machinery itself: 8
// LPs exchanging a steady cross-LP packet stream, so each lookahead window
// runs a handful of events and the boundary (drain + publish + clock vote)
// dominates. op = one simulated millisecond.
func BenchmarkParsimBoundaryExchange(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, net, part := rig(b, 8, 4, workers)
			n := net.Topology().NumHosts()
			for h := 0; h < n; h++ {
				h := h
				dst := topology.HostID((h + 4) % n) // next LP over
				eng := c.engs[part.LPOf[h]]
				ep := net.Endpoint(topology.HostID(h))
				ep.SetHandler(func(netsim.Packet) {})
				var tick func()
				tick = func() {
					ep.Unicast(dst, []byte("ping"))
					eng.Schedule(time.Millisecond, tick)
				}
				eng.Schedule(time.Millisecond, tick)
			}
			b.ResetTimer()
			horizon := time.Duration(0)
			for i := 0; i < b.N; i++ {
				horizon += time.Millisecond
				c.Run(horizon)
			}
			b.ReportMetric(float64(c.Steps())/float64(b.N), "events/op")
		})
	}
}
