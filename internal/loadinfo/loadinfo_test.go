package loadinfo

import (
	"slices"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func fixture(t *testing.T) (*sim.Engine, *netsim.Network) {
	t.Helper()
	eng := sim.NewEngine(5)
	return eng, netsim.New(eng, topology.FlatLAN(4))
}

func TestReporterPushesOnlyToInterested(t *testing.T) {
	eng, net := fixture(t)
	load := uint32(7)
	rep := NewReporter(eng, net.Endpoint(0), func() uint32 { return load })
	rep.Start()

	got := map[topology.HostID]int{}
	for _, h := range []topology.HostID{1, 2, 3} {
		h := h
		net.Endpoint(h).SetHandler(func(pkt netsim.Packet) {
			if m, err := wire.Decode(pkt.Payload); err == nil {
				if lr, ok := m.(*wire.LoadReport); ok && lr.Load == load {
					got[h]++
				}
			}
		})
	}
	// Nobody interested: nothing pushed.
	eng.Run(2 * time.Second)
	if len(got) != 0 {
		t.Fatalf("pushed to uninterested consumers: %v", got)
	}
	// Consumer 1 becomes interested.
	rep.NoteConsumer(1)
	eng.Run(eng.Now() + 2*time.Second)
	if got[1] == 0 {
		t.Fatal("interested consumer got no reports")
	}
	if got[2] != 0 || got[3] != 0 {
		t.Fatalf("uninterested consumers got reports: %v", got)
	}
	if rep.InterestedCount() != 1 {
		t.Fatalf("InterestedCount = %d", rep.InterestedCount())
	}
}

func TestInterestExpires(t *testing.T) {
	eng, net := fixture(t)
	rep := NewReporter(eng, net.Endpoint(0), func() uint32 { return 1 })
	rep.Start()
	count := 0
	net.Endpoint(1).SetHandler(func(pkt netsim.Packet) { count++ })
	rep.NoteConsumer(1)
	eng.Run(2 * interestWindow)
	during := count
	if during == 0 {
		t.Fatal("no reports during interest window")
	}
	// Window long past: counts must have frozen.
	eng.Run(eng.Now() + interestWindow)
	if count != during {
		t.Fatalf("reports continued after interest expired: %d -> %d", during, count)
	}
	if rep.InterestedCount() != 0 {
		t.Fatal("interest not pruned")
	}
}

func TestCacheFreshnessAndOrdering(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCache(eng, time.Second)
	c.Absorb(&wire.LoadReport{From: 3, Seq: 2, Load: 9})
	if s, ok := c.Get(3); !ok || s.Load != 9 {
		t.Fatalf("Get = %+v, %v", s, ok)
	}
	// Older (reordered) report ignored.
	c.Absorb(&wire.LoadReport{From: 3, Seq: 1, Load: 99})
	if s, _ := c.Get(3); s.Load != 9 {
		t.Fatalf("reordered report regressed cache: %+v", s)
	}
	// Newer applies.
	c.Absorb(&wire.LoadReport{From: 3, Seq: 3, Load: 4})
	if s, _ := c.Get(3); s.Load != 4 {
		t.Fatalf("newer report ignored: %+v", s)
	}
	// Expiry.
	eng.Schedule(2*time.Second, func() {})
	eng.RunAll()
	if _, ok := c.Get(3); ok {
		t.Fatal("stale sample still fresh")
	}
	if s := c.samples.Get(3); s == nil || !s.held {
		t.Fatal("stale sample not kept")
	}
	c.Forget(3)
	if s := c.samples.Get(3); s != nil && s.held {
		t.Fatal("Forget failed")
	}
}

// TestPushOrderIsDeterministic: with several interested consumers the
// reports of one round are separate unicasts, so their order decides every
// loss draw and same-instant tie-break after it. One seed must give one
// run: the (host, time) trace of delivered reports is identical on every
// rerun in one process.
func TestPushOrderIsDeterministic(t *testing.T) {
	type delivery struct {
		host topology.HostID
		at   time.Duration
	}
	run := func() (trace []delivery) {
		eng := sim.NewEngine(5)
		net := netsim.New(eng, topology.FlatLAN(9))
		net.SetLossProbability(0.3)
		load := uint32(0)
		rep := NewReporter(eng, net.Endpoint(0), func() uint32 { load++; return load })
		rep.Start()
		for h := topology.HostID(1); h <= 8; h++ {
			h := h
			net.Endpoint(h).SetHandler(func(netsim.Packet) { trace = append(trace, delivery{h, eng.Now()}) })
			rep.NoteConsumer(membership.NodeID(h))
		}
		eng.Run(3 * time.Second)
		return trace
	}
	want := run()
	if len(want) < 40 {
		t.Fatalf("only %d reports delivered; the run exercises nothing", len(want))
	}
	for rerun := 1; rerun <= 20; rerun++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("rerun %d delivered a different trace (%d reports, first run %d)", rerun, len(got), len(want))
		}
	}
}
