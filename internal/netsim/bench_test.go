package netsim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// BenchmarkMulticastFanout40 measures one TTL-scoped multicast into a
// 2-group cluster (39 receivers) plus the delivery drain — the hot loop of
// every heartbeat in the simulator. The receiver set comes from the
// epoch-keyed fan-out cache, so per-send cost must not rescan the topology.
func BenchmarkMulticastFanout40(b *testing.B) {
	eng := sim.NewEngine(1)
	n := New(eng, topology.Clustered(2, 20))
	for h := topology.HostID(0); h < 40; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) {})
	}
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Endpoint(0).Multicast(3, 4, payload)
		eng.RunAll()
	}
}

// BenchmarkPacketDecodeShared measures the shared decode path: one
// multicast parsed by 19 same-group receivers must run the real decoder
// once, through its send buffer into a borrowed decoder's resident heartbeat,
// and hand the remaining 18 receivers the parsed message — allocating nothing
// once the free lists are warm.
func BenchmarkPacketDecodeShared(b *testing.B) {
	eng := sim.NewEngine(1)
	n := New(eng, topology.Clustered(1, 20))
	hb := &wire.Heartbeat{Seq: 7}
	hb.Info.Node = 1
	payload := wire.Encode(hb)
	decodes := 0
	for h := topology.HostID(0); h < 20; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) {
			if _, err := pkt.Decode(); err != nil {
				b.Fatal(err)
			}
			decodes++
		})
	}
	round := func() {
		n.Endpoint(0).Multicast(3, 1, payload)
		eng.RunAll()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		b.Fatalf("a decoded 19-copy multicast allocates %v times, want 0", allocs)
	}
	decodes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if want := 19 * b.N; decodes != want {
		b.Fatalf("decodes = %d, want %d", decodes, want)
	}
}

// multicast400Ceiling builds the BenchmarkMulticast400 fixture — one
// all-to-all heartbeat on Clustered(20,20), the flat-alltoall workload's unit
// of work — checks its ceilings and returns one send-and-drain. The sender
// sits in a middle group, so its 399 receivers are three runs (the groups
// below, its own, the groups above): three engine events, not 399. Every
// receiver decodes the heartbeat, and nothing allocates: the three runs share
// one recycled send buffer, parsed once into a borrowed decoder's resident
// heartbeat.
func multicast400Ceiling(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	n := New(eng, topology.Clustered(20, 20))
	recv := 0
	for h := topology.HostID(0); h < 400; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) {
			if _, err := pkt.Decode(); err != nil {
				tb.Fatal(err)
			}
			recv++
		})
	}
	sender, ttl := n.Endpoint(210), n.Topology().Diameter()
	hb := &wire.Heartbeat{Seq: 7, Pad: 144}
	hb.Info.Node = 210
	payload := wire.Encode(hb)
	sender.Multicast(3, ttl, payload)
	steps, events := eng.Steps(), 0
	for eng.Step() {
		events++
	}
	if events > 3 {
		tb.Fatalf("one 399-copy multicast queued %d engine events, want at most 3", events)
	}
	if recv != 399 || eng.Steps()-steps != 399 {
		tb.Fatalf("%d copies arrived as %d logical events, want 399 of each", recv, eng.Steps()-steps)
	}
	round := func() {
		sender.Multicast(3, ttl, payload)
		eng.RunAll()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		tb.Fatalf("a steady-state, decoded 399-copy multicast allocates %v times, want 0", allocs)
	}
	return round
}

// TestBenchmarkCeilingsHold runs the ceilings of BenchmarkMulticast400 under
// plain `go test`, so a regression fails the suite and not only the bench
// smoke.
func TestBenchmarkCeilingsHold(t *testing.T) { multicast400Ceiling(t) }

func BenchmarkMulticast400(b *testing.B) {
	round := multicast400Ceiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
