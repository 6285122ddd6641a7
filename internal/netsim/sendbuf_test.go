package netsim

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/membership"
	"repro/internal/raceflag"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestSendCopiesPayload: Unicast and Multicast copy the payload before they
// return, so a sender that encodes its next packet into the same bytes does
// not change the one in flight.
func TestSendCopiesPayload(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3))
	var got []string
	for h := topology.HostID(1); h < 6; h++ {
		ep := n.Endpoint(h)
		ep.Join(7)
		ep.SetHandler(func(pkt Packet) { got = append(got, fmt.Sprintf("%d:%s", ep.id, pkt.Payload)) })
	}
	scratch := []byte("uni")
	n.Endpoint(0).Unicast(4, scratch)
	copy(scratch, "XXX")
	scratch = append(scratch[:0], "multi"...)
	n.Endpoint(0).Multicast(7, 2, scratch)
	copy(scratch, "YYYYY")
	eng.RunAll()
	sort.Strings(got)
	want := []string{"1:multi", "2:multi", "3:multi", "4:multi", "4:uni", "5:multi"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

// TestSendBufferSizes: a payload takes a buffer of its size class, and one
// larger than the largest class, which is never kept, a buffer of its own
// size.
func TestSendBufferSizes(t *testing.T) {
	_, n := newNet(t, topology.Clustered(1, 2))
	for _, c := range []struct{ len, cap int }{{1, bufMin}, {100, 2 * bufMin}, {bufMin << (bufClasses - 1), bufMin << (bufClasses - 1)}, {70000, 70000}} {
		if b := n.Endpoint(0).newBuf(make([]byte, c.len), 0); cap(b.b) != c.cap || len(b.b) != c.len {
			t.Errorf("a %d-byte payload got a buffer of %d bytes, cap %d; want cap %d", c.len, len(b.b), cap(b.b), c.cap)
		}
	}
}

// TestKeptPayloadIsScribbled is the tripwire for packet memory kept past its
// handler: with the race detector compiled in, a send buffer is filled with a
// fixed pattern when its last holder lets go, so a handler that kept
// pkt.Payload reads the pattern afterwards, not its packet, nor quietly a
// later one.
func TestKeptPayloadIsScribbled(t *testing.T) {
	if !raceflag.Enabled {
		t.Skip("the scribble is compiled in with the race detector only")
	}
	eng, n := newNet(t, topology.Clustered(1, 3))
	var kept [][]byte
	for h := topology.HostID(1); h < 3; h++ {
		ep := n.Endpoint(h)
		ep.Join(7)
		ep.SetHandler(func(pkt Packet) { kept = append(kept, pkt.Payload) })
	}
	n.Endpoint(0).Unicast(1, []byte("unicast"))
	n.Endpoint(0).Multicast(7, 1, []byte("multicast"))
	eng.RunAll()
	if len(kept) != 3 {
		t.Fatalf("%d deliveries, want 3", len(kept))
	}
	for _, p := range kept {
		if len(p) == 0 || !bytes.Equal(p, bytes.Repeat([]byte{scribble}, len(p))) {
			t.Fatalf("kept payload %q after its handler returned, want the released buffer's pattern", p)
		}
	}
}

// TestKeptPacketDecodePanics is the tripwire for a Packet kept past its
// handler: with the race detector compiled in, decoding it panics, whether
// its record has no holder left or holds other bytes by now.
func TestKeptPacketDecodePanics(t *testing.T) {
	if !raceflag.Enabled {
		t.Skip("the tripwire is compiled in with the race detector only")
	}
	eng, n := newNet(t, topology.Clustered(1, 3))
	var kept []Packet
	for h := topology.HostID(1); h < 3; h++ {
		ep := n.Endpoint(h)
		ep.Join(7)
		ep.SetHandler(func(pkt Packet) { kept = append(kept, pkt) })
	}
	n.Endpoint(0).Unicast(1, wire.Encode(&wire.LoadPoll{From: 1, Token: 2}))
	// A heartbeat over a size class of its own: it must not come back for the
	// poll below.
	svcs := []membership.ServiceDecl{{Name: "a service name to pass sixty-four bytes"}}
	n.Endpoint(0).Multicast(7, 1, wire.Encode(&wire.Heartbeat{Info: membership.MemberInfo{Node: 1, Services: svcs}, Seq: 3, Pad: 144}))
	eng.RunAll()
	if len(kept) != 3 {
		t.Fatalf("%d deliveries, want 3", len(kept))
	}
	decodePanics := func(what string, pkt Packet) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("decoding %s did not panic", what)
			}
		}()
		pkt.Decode()
	}
	for _, pkt := range kept {
		decodePanics("a released packet", pkt)
	}
	// The next unicast of the poll's size class takes its buffer back: the
	// kept packet's record has a holder again, but not its bytes.
	poll := kept[0]
	n.Endpoint(2).SetHandler(func(pkt Packet) {
		if pkt.buf != poll.buf || len(pkt.Payload) == len(poll.Payload) {
			t.Fatal("the next poll did not take the kept one's buffer for other bytes")
		}
		decodePanics("a packet whose record was recycled", poll)
	})
	n.Endpoint(0).Unicast(2, []byte("not a poll"))
	eng.RunAll()
}

// crossCeiling builds a partitioned two-LP network — two groups of ten, one
// LP each — and checks that in the steady state a padded heartbeat multicast
// from LP 0 into both groups, every copy decoded, allocates nothing. Every
// copy views the one buffer from the sender's lists; the copies on the other
// LP hold it until that LP's loose record gives their holds back, at the next
// boundary, and the loose record, the decoder it borrows and every delivery
// come from the receiving LP's lists.
func crossCeiling(tb testing.TB) func() {
	top := topology.Clustered(2, 10)
	part := top.LPPartition()
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}
	n := New(engs[0], top)
	n.EnablePartition(part.LPOf, engs, 1)
	decodes := [2]int{}
	for h := topology.HostID(0); h < 20; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) {
			if _, err := pkt.Decode(); err != nil {
				tb.Fatal(err)
			}
			decodes[ep.lp]++
		})
	}
	n.PublishAllSubs()
	payload := wire.Encode(&wire.Heartbeat{Seq: 7, Pad: 144})
	sender, ttl := n.Endpoint(0), top.Diameter()
	now := time.Duration(0)
	round := func() {
		sender.Multicast(3, ttl, payload)
		for queued(engs) {
			now += part.Lookahead
			for _, eng := range engs {
				eng.RunBefore(now)
			}
			n.DrainCross(0, now)
			for _, eng := range engs {
				eng.AdvanceTo(now)
			}
		}
	}
	round()
	if decodes != [2]int{9, 10} {
		tb.Fatalf("decodes per LP %v, want [9 10]", decodes)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		tb.Fatalf("a steady-state multicast into two LPs allocates %v times, want 0", allocs)
	}
	return round
}

func TestCrossLPCeilingHolds(t *testing.T) { crossCeiling(t) }

// TestSendBufSize: a send buffer stays in the 96-byte size class. At 120
// bytes, with the hold fields beside the old flags, chaos-matrix's alloc_mb
// measured 2 % higher: its cells are serial and each builds its free lists
// cold.
func TestSendBufSize(t *testing.T) {
	if size := unsafe.Sizeof(sendBuf{}); size != 96 {
		t.Fatalf("sendBuf is %d bytes, want 96", size)
	}
}

// TestPacketSize: a Packet stays at eight register-sized words. It travels
// by value into every handler, most of them method values, and beside the
// receiver a ninth word spills every delivery's packet through memory
// (about a fifth more wall on flat-alltoall when it was tried). Anything new
// a packet carries goes in sendBuf. Words are counted, not bytes: a ninth
// int32 fits in the padding after Channel and leaves the size unchanged.
//
// Mutant: a ninth field, `extra int32`, after Channel (56 bytes) or after buf (64).
func TestPacketSize(t *testing.T) {
	if words := argWords(reflect.TypeOf(Packet{})); words > 8 {
		t.Fatalf("Packet takes %d argument registers (%d bytes), want at most 8: put the new field in sendBuf",
			words, unsafe.Sizeof(Packet{}))
	}
}

// argWords counts the registers a value of type t takes as an argument: one
// per scalar field, three for a slice, two for a string or an interface. An
// array is counted per element, more than the register ABI would allow it.
func argWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += argWords(t.Field(i).Type)
		}
		return n
	case reflect.Array:
		return t.Len() * argWords(t.Elem())
	case reflect.Slice:
		return 3
	case reflect.String, reflect.Interface, reflect.Complex64, reflect.Complex128:
		return 2
	default:
		return 1
	}
}

// checkBufs holds an LP's free lists to their invariants: every listed
// buffer is unreferenced, undecoded, no loose record and holds nothing, sits
// in its own class once, and the lists add up to the accounted bytes, within
// the budget; every listed loose record is unreferenced, undecoded, views no
// bytes and has no holds; no listed decoder is listed twice or lent to a
// record still held, and neither list keeps more than one entry per endpoint
// of the LP. No replay-ring slot holds a listed record.
func checkBufs(t *testing.T, n *Network, lp int32, eps []*Endpoint) {
	t.Helper()
	p := n.pool(lp)
	listed := map[*sendBuf]bool{}
	total := 0
	for c, l := range p.bufs {
		for _, b := range l {
			if b.refs != 0 || b.origin != nil || b.holds != 0 || b.dec != nil || b.msg != nil || b.err != nil || b.pool != p || listed[b] || bufClass(cap(b.b)) != c || cap(b.b) != bufMin<<c {
				t.Fatalf("LP %d: listed buffer of class %d has %d refs, origin %v, %d holds, decoder %v, cap %d, listed before %v", lp, c, b.refs, b.origin != nil, b.holds, b.dec != nil, cap(b.b), listed[b])
			}
			listed[b] = true
			total += cap(b.b)
		}
		if p.low[c] > len(l) {
			t.Fatalf("LP %d: class %d lists %d buffers under a low-water mark of %d", lp, c, len(l), p.low[c])
		}
	}
	if total != p.bytes || total > bufBudget {
		t.Fatalf("LP %d: lists hold %d bytes, accounted %d, budget %d", lp, total, p.bytes, bufBudget)
	}
	for _, b := range p.loose {
		if b.refs != 0 || b.origin != nil || b.holds != 0 || b.dec != nil || b.msg != nil || b.err != nil || b.b != nil || b.pool != p || listed[b] {
			t.Fatalf("LP %d: listed loose record has %d refs, origin %v, %d holds, decoder %v, %d bytes, listed before %v", lp, b.refs, b.origin != nil, b.holds, b.dec != nil, len(b.b), listed[b])
		}
		listed[b] = true
	}
	decs := map[*wire.Decoder]bool{}
	for _, d := range p.decs {
		if decs[d] {
			t.Fatalf("LP %d: a decoder is listed twice", lp)
		}
		decs[d] = true
	}
	if len(p.decs) > p.hosts || len(p.loose) > p.hosts {
		t.Fatalf("LP %d: %d decoders and %d loose records listed for %d endpoints", lp, len(p.decs), len(p.loose), p.hosts)
	}
	for _, ep := range eps {
		for _, r := range ep.recent {
			if b := r.pkt.buf; b != nil && (listed[b] || b.refs < 1 || b.pool != p || decs[b.dec]) {
				t.Fatalf("host %d: replay slot holds a record with %d refs, listed %v, decoder listed %v", ep.id, b.refs, listed[b], decs[b.dec])
			}
		}
	}
}

// TestSendBuffersBalance replays the seeded scripts — duplication, jitter,
// gray hosts, every byte fault, cross-LP runs, fan-outs, some with every copy
// bound for another LP — serially and partitioned, as
// they are and framed as wire packets that every handler decodes, and checks
// the buffer lists of every LP afterwards: a reference taken twice or dropped
// twice shows as a listed buffer still held, or listed twice. Once the script
// is quiet and one more boundary has settled the holds given back, the
// holders left are the replay-ring slots: every record a handler saw, or the
// buffer its loose record viewed, is held exactly by the slots that hold it
// and by the holds of the loose records in slots that view it. A hold given
// back short leaves a buffer held by nothing.
//
// Mutant: a loose record gives back 1 hold instead of b.holds (TestCrossLPCeilingHolds too).
// Mutant: sendBuf.drop keeps a recycled buffer's decode: msg and err are not cleared.
func TestSendBuffersBalance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, buckets := range []int{0, 4} {
			for _, framed := range []bool{false, true} {
				checkBalance(t, seed, buckets, framed)
			}
		}
	}
}

func checkBalance(t *testing.T, seed int64, buckets int, framed bool) {
	what := fmt.Sprintf("seed %d, %d buckets, framed %v", seed, buckets, framed)
	w := newWorld(seed, buckets, 0)
	if framed {
		w.wire = newWireScript(len(w.engs))
	}
	seen := make([]map[*sendBuf]bool, len(w.engs)) // per LP, like w.logs
	for lp := range seen {
		seen[lp] = map[*sendBuf]bool{}
	}
	for h := topology.HostID(0); h < scriptHosts; h++ {
		ep := w.net.Endpoint(h)
		handler, lp := ep.handler, ep.lp
		ep.SetHandler(func(pkt Packet) {
			seen[lp][pkt.buf] = true
			if o := pkt.buf.origin; o != nil {
				seen[lp][o] = true
			}
			handler(pkt)
		})
	}
	w.run(genScript(seed))
	// A handler's chain of sends — stale re-deliveries, replays, a hop count
	// a corrupt fault raised — may outlast the script: run on until it is
	// quiet.
	end := scriptEnd
	for queued(w.engs) && end < 4*scriptEnd {
		end += scriptEnd
		w.until(end)
	}
	if buckets > 0 {
		w.each(func(b int) { w.net.DrainCross(b, end) })
	}
	want := map[*sendBuf]int32{}
	for lp, eng := range w.engs {
		if _, ok := eng.NextEventAt(); ok {
			t.Fatalf("%s: LP %d has events left", what, lp)
		}
		var eps []*Endpoint
		for h := topology.HostID(0); h < scriptHosts; h++ {
			if ep := w.net.Endpoint(h); ep.lp == int32(lp) {
				eps = append(eps, ep)
			}
		}
		checkBufs(t, w.net, int32(lp), eps)
		for _, ep := range eps {
			for _, r := range ep.recent {
				if b := r.pkt.buf; b != nil {
					if want[b]++; want[b] == 1 && b.origin != nil {
						want[b.origin] += b.holds
					}
				}
			}
		}
	}
	for lp := range seen {
		for b := range seen[lp] {
			if b.refs != want[b] {
				t.Fatalf("%s: a record seen on LP %d has %d refs, %d holds, origin %v; the replay slots account for %d", what, lp, b.refs, b.holds, b.origin != nil, want[b])
			}
		}
	}
}

// queued reports whether any of engs has an event left.
func queued(engs []*sim.Engine) bool {
	for _, eng := range engs {
		if _, ok := eng.NextEventAt(); ok {
			return true
		}
	}
	return false
}

// sendCeiling builds the BenchmarkSendSteadyState fixture — a 1000-byte
// unicast and a padded heartbeat multicast into a 20-host group, every copy
// decoded — and checks that in the steady state a round allocates nothing:
// the buffers come back from the free lists.
func sendCeiling(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	n := New(eng, topology.Clustered(1, 20))
	for h := topology.HostID(0); h < 20; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) {
			if _, err := pkt.Decode(); err != nil {
				tb.Fatal(err)
			}
		})
	}
	hb := &wire.Heartbeat{Seq: 7, Pad: 144}
	req := wire.Encode(&wire.ServiceRequest{ReqID: 1, Service: "svc", Payload: make([]byte, 1000)})
	var enc wire.Encoder
	scratch := make([]byte, 0, 2048)
	round := func() {
		hb.Seq++
		scratch = enc.AppendEncode(scratch[:0], hb)
		n.Endpoint(0).Multicast(3, 1, scratch)
		n.Endpoint(0).Unicast(5, req)
		eng.RunAll()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		tb.Fatalf("a steady-state unicast and 19-copy multicast allocate %v times, want 0", allocs)
	}
	return round
}

func TestSendCeilingHolds(t *testing.T) { sendCeiling(t) }

// freeBufs counts the buffers in an LP's free lists.
func freeBufs(n *Network, lp int32) int {
	count := 0
	for _, l := range n.pool(lp).bufs {
		count += len(l)
	}
	return count
}

// fanoutCeiling builds a 24-host group on one LP and checks that in the
// steady state a UnicastAll of a padded heartbeat to the other 23, every copy
// decoded, allocates nothing and takes exactly one buffer from the free
// lists: the copies share it, and the runs it is cut into, as a multicast's
// copies do.
func fanoutCeiling(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	n := New(eng, topology.Clustered(1, 24))
	var dsts []topology.HostID
	decodes := 0
	for h := topology.HostID(0); h < 24; h++ {
		n.Endpoint(h).SetHandler(func(pkt Packet) {
			if _, err := pkt.Decode(); err != nil {
				tb.Fatal(err)
			}
			decodes++
		})
		if h > 0 {
			dsts = append(dsts, h)
		}
	}
	payload := wire.Encode(&wire.Heartbeat{Seq: 7, Pad: 144})
	taken := 0
	round := func() {
		free := freeBufs(n, 0)
		n.Endpoint(0).UnicastAll(dsts, payload)
		taken = free - freeBufs(n, 0)
		eng.RunAll()
	}
	round()
	if decodes != 23 {
		tb.Fatalf("%d copies decoded, want 23", decodes)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 || taken != 1 {
		tb.Fatalf("a steady-state 23-host UnicastAll allocates %v times and takes %d buffers, want 0 and 1", allocs, taken)
	}
	return round
}

func TestFanoutCeilingHolds(t *testing.T) { fanoutCeiling(t) }

// TestFanoutBuffersAcrossLPs: on a network of two LPs, a fan-out's copies
// bound for the other LP each take a buffer of their own, which changes hands
// at the boundary, and the copies that stay share one, taken at the first of
// them: a fan-out with no copy staying takes none to share.
//
// Mutant: send takes a UnicastAll's shared buffer before its first same-LP copy.
func TestFanoutBuffersAcrossLPs(t *testing.T) {
	top := topology.Clustered(2, 10)
	part := top.LPPartition()
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}
	n := New(engs[0], top)
	n.EnablePartition(part.LPOf, engs, 1)
	recv := 0
	for h := topology.HostID(0); h < 20; h++ {
		n.Endpoint(h).SetHandler(func(Packet) { recv++ })
	}
	payload := []byte("a fan-out")
	var other, all []topology.HostID
	for h := topology.HostID(1); h < 20; h++ {
		all = append(all, h)
		if part.LPOf[h] != part.LPOf[0] {
			other = append(other, h)
		}
	}
	now := time.Duration(0)
	settle := func() { // a window drains the outbox first
		for first := true; first || queued(engs); first = false {
			now += part.Lookahead
			for _, eng := range engs {
				eng.RunBefore(now)
			}
			n.DrainCross(0, now)
			for _, eng := range engs {
				eng.AdvanceTo(now)
			}
		}
	}
	send := func(dsts []topology.HostID) int {
		// Unicasts from the other LP leave their buffers in the sender's lists.
		for _, h := range other {
			n.Endpoint(h).Unicast(0, payload)
			n.Endpoint(h).Unicast(0, payload)
		}
		settle()
		free := freeBufs(n, 0)
		n.Endpoint(0).UnicastAll(dsts, payload)
		taken := free - freeBufs(n, 0)
		settle()
		return taken
	}
	if got := send(other); got != len(other) {
		t.Fatalf("a fan-out of %d copies, every one bound for the other LP, took %d buffers, want %d", len(other), got, len(other))
	}
	if got := send(all); got != len(other)+1 {
		t.Fatalf("a fan-out of %d copies, %d of them bound for the other LP, took %d buffers, want %d", len(all), len(other), got, len(other)+1)
	}
	if want := 4*len(other) + len(other) + len(all); recv != want {
		t.Fatalf("%d copies delivered, want %d", recv, want)
	}
}

func BenchmarkSendSteadyState(b *testing.B) {
	round := sendCeiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
