package gossip

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// world is one started gossip node on host 0 of a LAN of silent hosts, with
// everything a merge can change put on record: the directory's events and
// the endpoint's reject counter.
type world struct {
	eng    *sim.Engine
	ep     *netsim.Endpoint
	n      *Node
	events []membership.Event
}

func newWorld(cfg Config, hosts int) *world {
	w := &world{eng: sim.NewEngine(1)}
	w.ep = netsim.New(w.eng, topology.FlatLAN(hosts)).Endpoint(0)
	w.n = NewNode(cfg, w.ep)
	w.n.Directory().AddObserver(func(e membership.Event) { w.events = append(w.events, e) })
	w.n.Start(w.eng)
	return w
}

// entry is one directory row as a test compares it: the entry and the
// record behind it.
type entry struct {
	membership.Entry
	Info membership.MemberInfo
}

func (w *world) entries() []entry {
	var out []entry
	w.n.Directory().Range(func(_ membership.NodeID, e *membership.Entry) { out = append(out, entry{*e, w.n.Directory().Info(e)}) })
	return out
}

// mergeByEntry is the receive loop the view merge replaced — one relayed
// Upsert per entry of a built message — kept as the reference.
func mergeByEntry(w *world, g *wire.Gossip) {
	now := w.eng.Now()
	for _, e := range g.Entries {
		if e.Info.Node == w.n.ID() {
			continue
		}
		if e.Info.Node < 0 {
			w.ep.NoteReject()
			continue
		}
		w.n.Directory().Upsert(e.Info, membership.OriginRelayed, 0, g.From, now)
	}
}

// randomView draws a view of a 25-member cluster as some peer might hold it
// at round r: counters scattered around r so that a record may be ahead of,
// level with or behind what the receiver holds; restarts and republished
// content; records with services and attributes; the receiver's own record;
// and impossible identities. Empty slices are nil, as a decoder leaves them.
func randomView(rng *rand.Rand, r int) *wire.Gossip {
	g := &wire.Gossip{From: membership.NodeID(1 + rng.Intn(24))}
	for i := rng.Intn(30); i > 0; i-- {
		info := membership.MemberInfo{
			Node:        membership.NodeID(rng.Intn(25)), // 0 is the receiver itself
			Incarnation: uint32(1 + rng.Intn(8)/7),
			Version:     uint64(rng.Intn(6) / 4),
			Beat:        uint64(max(0, r/2+rng.Intn(12)-8)),
		}
		if rng.Intn(12) == 0 {
			info.Node = membership.NodeID(-1 - rng.Intn(3))
		}
		if info.Version > 0 || rng.Intn(6) == 0 {
			info.Services = []membership.ServiceDecl{{
				Name:       fmt.Sprint("svc", rng.Intn(3)),
				Partitions: []int32{rng.Int31n(8)},
				Params:     []membership.KV{{Key: "port", Value: fmt.Sprint(rng.Intn(9))}},
			}}
			info.Attrs = []membership.KV{{Key: "v", Value: fmt.Sprint(info.Version)}}
		}
		g.Entries = append(g.Entries, wire.GossipEntry{Counter: info.Beat, Info: info})
	}
	return g
}

// TestViewMergeMatchesEntryLoop feeds the same random views to two identical
// nodes — one through Receive (GossipView, one MergeRelayed), one through the
// per-entry Upsert loop — while their clocks run, so that rounds fire,
// silent members expire into tombstones and tombstones lapse. After every
// view the two must hold the same directory, entry for entry including the
// per-holder bookkeeping, have announced the same events in the same order,
// and have rejected the same number of records.
func TestViewMergeMatchesEntryLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.failTimeout = 4 * time.Second
	got, want := newWorld(cfg, 30), newWorld(cfg, 30)
	rng := rand.New(rand.NewSource(31))
	var joins, leaves, updates int
	for r := 0; r < 600; r++ {
		step := time.Duration(rng.Intn(1500)) * time.Millisecond
		got.eng.Run(got.eng.Now() + step)
		want.eng.Run(want.eng.Now() + step)
		g := randomView(rng, r)
		got.n.Receive(netsim.Packet{Src: topology.HostID(g.From), Dst: 0, Payload: wire.Encode(g)})
		mergeByEntry(want, g)
		if a, b := got.entries(), want.entries(); !reflect.DeepEqual(a, b) {
			t.Fatalf("view %d: directories differ\n view merge: %+v\n entry loop: %+v", r, a, b)
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("view %d: event sequences differ\n view merge: %v\n entry loop: %v", r, got.events, want.events)
		}
		if a, b := got.ep.Stats().Rejected, want.ep.Stats().Rejected; a != b {
			t.Fatalf("view %d: %d records rejected by the view merge, %d by the entry loop", r, a, b)
		}
	}
	for _, e := range got.events {
		switch e.Type {
		case membership.EventJoin:
			joins++
		case membership.EventLeave:
			leaves++
		case membership.EventUpdate:
			updates++
		}
	}
	// The comparison is only worth something if every decision was exercised.
	if joins < 30 || leaves < 5 || updates < 10 || got.ep.Stats().Rejected < 50 {
		t.Fatalf("thin coverage: %d joins, %d leaves, %d updates, %d rejects", joins, leaves, updates, got.ep.Stats().Rejected)
	}
}

// TestDamagedViewIsNotApplied: a view is merged whole or not at all. A body
// whose every record is good but whose tail is cut short, under a valid
// checksum, costs the packet — not just the tail.
func TestDamagedViewIsNotApplied(t *testing.T) {
	w := newWorld(DefaultConfig(), 30)
	good := wire.Encode(randomView(rand.New(rand.NewSource(32)), 40))
	bad := append([]byte(nil), good[:len(good)-2]...) // into the pad length
	binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[wire.HeaderLen:], crc32.MakeTable(crc32.Castagnoli)))
	w.n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: bad})
	if w.n.Directory().Len() != 1 || w.ep.Stats().Rejected != 1 {
		t.Fatalf("a damaged view left %d entries and %d rejects, want the self entry and 1", w.n.Directory().Len(), w.ep.Stats().Rejected)
	}
	w.n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: good})
	if w.n.Directory().Len() < 10 {
		t.Fatalf("the undamaged view left %d entries", w.n.Directory().Len())
	}
}

// ---- benchmarks, with allocation ceilings that fail the run ----

// viewSource plays a peer with a 400-member view whose counters all advance
// between rounds: the steady state of a converged cluster.
type viewSource struct {
	dir     *membership.Directory
	counter uint64
}

const benchView, benchEntryPad = 400, 140

func (s *viewSource) next() []byte {
	if s.dir == nil {
		s.dir = membership.NewDirectory(1)
	}
	s.counter++
	for i := 0; i < benchView; i++ {
		s.dir.Upsert(membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: s.counter}, membership.OriginRelayed, 0, 1, 0)
	}
	return wire.AppendGossip(nil, 1, s.dir, benchEntryPad)
}

// benchNode is a started node that already holds the 400-member view and
// never expires any of it.
func benchNode(tb testing.TB, src *viewSource) *world {
	cfg := DefaultConfig()
	cfg.failTimeout = 1000 * time.Hour
	cfg.EntryPad = benchEntryPad
	w := newWorld(cfg, benchView)
	w.n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: src.next()})
	if w.n.Directory().Len() != benchView {
		tb.Fatalf("fixture: the node holds %d members, want %d", w.n.Directory().Len(), benchView)
	}
	return w
}

// receiveCeiling checks that merging a 400-entry view in which every counter
// advanced allocates the decoded view and nothing else, and returns the
// fixture.
func receiveCeiling(tb testing.TB) (*world, *viewSource) {
	src := &viewSource{}
	w := benchNode(tb, src)
	const runs = 20
	payloads := make([][]byte, runs+1) // AllocsPerRun warms up with one extra call
	for i := range payloads {
		payloads[i] = src.next()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		w.n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: payloads[i]})
		i++
	})
	if allocs > 1 {
		tb.Fatalf("receiving a %d-entry view allocates %v times, want at most the view", benchView, allocs)
	}
	if e := w.n.Directory().Get(7); e.Beat != src.counter || w.ep.Stats().Rejected != 0 {
		tb.Fatalf("the views did not land: counter %d of %d, %d rejects", e.Beat, src.counter, w.ep.Stats().Rejected)
	}
	return w, src
}

// roundCeiling checks that a round of a node holding 400 members allocates
// nothing — the view is framed into the node's send buffer and one
// UnicastAll copies it into a recycled network buffer its copies share — and
// returns the round.
func roundCeiling(tb testing.TB) func() {
	w := benchNode(tb, &viewSource{})
	sent := w.ep.Stats().PktsSent
	round := func() { w.eng.Run(w.eng.Now() + gossipInterval) }
	round() // grow the target scratch
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		tb.Fatalf("a round over %d members allocates %v times, want 0", benchView, allocs)
	}
	if got := w.ep.Stats().PktsSent - sent; got < runs {
		tb.Fatalf("%d packets sent in %d rounds", got, runs)
	}
	return round
}

// TestBenchmarkCeilingsHold runs the allocation ceilings of the benchmarks
// below under plain `go test`, so a regression fails the suite and not only
// the CI bench smoke.
func TestBenchmarkCeilingsHold(t *testing.T) {
	receiveCeiling(t)
	roundCeiling(t)
}

// BenchmarkReceiveView400 measures the steady-state receive path: checksum,
// validating walk, and a merge that refreshes every one of 400 counters.
func BenchmarkReceiveView400(b *testing.B) {
	w, src := receiveCeiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		payload := src.next()
		b.StartTimer()
		w.n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: payload})
	}
}

// BenchmarkRound400 measures one gossip round of a node holding 400 members:
// the self refresh, the expiry sweep, framing the padded view and sending it.
func BenchmarkRound400(b *testing.B) {
	round := roundCeiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
