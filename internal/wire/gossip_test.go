package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/membership"
)

// checkGossipAgainstReference decodes b (good header, any body) as a view
// and with the slice-building decoder the view replaced, and fails unless
// they agree on acceptance, on the error, on every field of every record and
// on the packet either re-encodes to — and, for a rejected body, unless
// nothing came back that a receiver could merge. b is copied into a buffer of
// exactly its length first, so a cursor that read past the payload would
// fault instead of finding slack.
func checkGossipAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	b = append(make([]byte, 0, len(b)), b...)
	want, wantErr := refDecodeGossip(b)
	got := decodeLike(t, b, wantErr)
	if got == nil {
		return
	}
	v := got.(*GossipView)
	if v.From != want.From || v.pad != want.Pad || v.entries.n != len(want.Entries) {
		t.Fatalf("view header (%v %d %d) != (%v %d %d)", v.From, v.pad, v.entries.n, want.From, want.Pad, len(want.Entries))
	}
	infos := make([]membership.MemberInfo, len(want.Entries))
	for i, e := range want.Entries {
		infos[i] = e.Info
	}
	checkCursor(t, v.Cursor(), infos)
	if !bytes.Equal(Encode(v), Encode(want)) {
		t.Fatal("the view and the materialised message re-encode differently")
	}
}

// randomGossip draws a view from randomInfos; a sender writes each entry's
// counter into its record's beat as well, a hostile one need not.
func randomGossip(rng *rand.Rand, n int) *Gossip {
	g := &Gossip{From: membership.NodeID(rng.Intn(50)), Pad: uint32(rng.Intn(3) * rng.Intn(300))}
	for _, info := range randomInfos(rng, n) {
		e := GossipEntry{Counter: info.Beat, Info: info}
		if rng.Intn(10) == 0 {
			e.Counter = rng.Uint64()
		}
		g.Entries = append(g.Entries, e)
	}
	return g
}

func TestGossipViewMatchesMaterialisingDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		checkGossipAgainstReference(t, Encode(randomGossip(rng, rng.Intn(40))))
	}
}

// TestGossipRejectsDamageAtEveryOffset is TestDirectoryRejectsDamageAtEveryOffset
// for the gossip view: every truncation and hostile bytes at every body
// offset, resealed so that only the validating walk can notice.
func TestGossipRejectsDamageAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomGossip(rng, 6)
	g.Entries = append(g.Entries, GossipEntry{Counter: 3, Info: sampleInfo()})
	g.Pad = 9
	good := Encode(g)
	for cut := HeaderLen; cut < len(good); cut++ {
		b := reseal(append([]byte(nil), good[:cut]...))
		if _, err := Decode(b); err == nil {
			t.Fatalf("view truncated to %d of %d bytes accepted", cut, len(good))
		}
		checkGossipAgainstReference(t, b)
	}
	for off := HeaderLen; off < len(good); off++ {
		for _, v := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			b := append([]byte(nil), good...)
			b[off] = v
			checkGossipAgainstReference(t, reseal(b))
		}
	}
}

// TestEncodeGossipMatchesMessage: framing a view straight from the directory
// produces the bytes of the message built entry by entry, as gossip.round
// built it before — with and without per-entry padding, for records with
// services and attributes, and for entries whose beat a refresh moved past
// the one their content arrived with.
func TestEncodeGossipMatchesMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 60; round++ {
		dir := membership.NewDirectory(0)
		for _, info := range randomInfos(rng, rng.Intn(60)) {
			dir.Upsert(info, membership.OriginRelayed, 0, 2, 0)
			info.Beat += uint64(rng.Intn(3)) // a refresh moves the counter, and the stored beat with it
			dir.Upsert(info, membership.OriginRelayed, 0, 3, 0)
		}
		entryPad := []int{0, 140, -5}[round%3]
		msg := &Gossip{From: 9}
		dir.Range(func(_ membership.NodeID, e *membership.Entry) {
			msg.Entries = append(msg.Entries, GossipEntry{Counter: e.Beat, Info: dir.Info(e)})
		})
		if entryPad > 0 {
			msg.Pad = uint32(entryPad * len(msg.Entries))
		}
		got, want := AppendGossip(nil, 9, dir, entryPad), Encode(msg)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (pad %d): AppendGossip differs from Encode(Gossip)", round, entryPad)
		}
		if got := AppendGossip([]byte("lead"), 9, dir, entryPad); !bytes.Equal(got, append([]byte("lead"), want...)) {
			t.Fatalf("round %d: AppendGossip after other bytes differs from them plus Encode(Gossip)", round)
		}
		checkGossipAgainstReference(t, got)
	}
}

// gossipPayload is a steady-state view of n liveness-only members, padded to
// the paper's 228 bytes per member as the harness pads it.
func gossipPayload(n int, counter uint64) []byte {
	dir := membership.NewDirectory(0)
	for i := 0; i < n; i++ {
		dir.Upsert(membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: counter}, membership.OriginRelayed, 0, 1, 0)
	}
	return AppendGossip(nil, 1, dir, 140)
}

// TestEncodeGossipCarriesNoTail: a 400-entry view padded to the paper's 228
// bytes per member declares its 56 000-byte tail and carries none of it. A
// round writes at most 16.1 KiB, where the zero run made it about 72 KiB, and
// into a warm buffer allocates nothing.
func TestEncodeGossipCarriesNoTail(t *testing.T) {
	dir := membership.NewDirectory(0)
	for i := 0; i < 400; i++ {
		dir.Upsert(membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}, membership.OriginRelayed, 0, 1, 0)
	}
	b := AppendGossip(nil, 1, dir, 140)
	allocs := testing.AllocsPerRun(20, func() { b = AppendGossip(b[:0], 1, dir, 140) })
	if allocs != 0 || len(b) > 16486 {
		t.Fatalf("a 400-entry view allocates %v times and writes %d bytes, want none and at most 16.1 KiB", allocs, len(b))
	}
	if got := Padding(b); got != 400*140 {
		t.Fatalf("the view declares a %d-byte tail, want %d", got, 400*140)
	}
}

// TestGossipDecodeAllocatesTheViewOnly pins the receive side's contract: a
// 400-entry view costs one allocation to decode — the view — and none to walk.
func TestGossipDecodeAllocatesTheViewOnly(t *testing.T) {
	payload := gossipPayload(400, 7)
	var sum uint64
	allocs := testing.AllocsPerRun(20, func() {
		m, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		for c := m.(*GossipView).Cursor(); c.Next(); {
			sum += c.Prefix().Beat
		}
	})
	if allocs > 1 || sum == 0 {
		t.Fatalf("decoding and walking a 400-entry view allocates %.1f times (beat sum %d), want at most 1", allocs, sum)
	}
}

// TestRapidViewMatchesMaterialisingDecode: the records a rapid view carries
// stay encoded on both sides; what the receiver's cursor yields is what a
// decoder that builds them all would have built, under damage too.
func TestRapidViewMatchesMaterialisingDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	check := func(b []byte) {
		t.Helper()
		b = append(make([]byte, 0, len(b)), b...)
		want, wantErr := refDecodeRapidView(b)
		got := decodeLike(t, b, wantErr)
		if got == nil {
			return
		}
		v := got.(*RapidView)
		if v.Seq != want.Seq || v.Proposer != want.Proposer || fmt.Sprint(v.Members) != fmt.Sprint(want.Members) || v.Infos.n != len(want.Infos) {
			t.Fatalf("view header %+v != %+v", v, want)
		}
		checkCursor(t, v.Infos.Cursor(), want.Infos)
	}
	var good []byte
	for round := 0; round < 100; round++ {
		v := &RapidView{Seq: uint64(rng.Intn(9)), Proposer: membership.NodeID(rng.Intn(9)), Infos: infoList(randomInfos(rng, rng.Intn(20))...)}
		for i := rng.Intn(20); i > 0; i-- {
			v.Members = append(v.Members, membership.NodeID(rng.Intn(50)))
		}
		good = Encode(v)
		check(good)
	}
	for cut := HeaderLen; cut < len(good); cut++ {
		check(reseal(append([]byte(nil), good[:cut]...)))
	}
	for off := HeaderLen; off < len(good); off++ {
		b := append([]byte(nil), good...)
		b[off] = 0xFF
		check(reseal(b))
	}
}

// TestTypeOf: the frame-only check answers with the tag Decode dispatches on
// and refuses exactly the frames Decode refuses.
func TestTypeOf(t *testing.T) {
	for _, m := range []Message{&Heartbeat{Pad: 3}, &SyncRequest{From: 1}, &Gossip{From: 2}, &DirectoryMsg{From: 3}, &RapidView{Seq: 1}} {
		b := Encode(m)
		if got, err := TypeOf(b); err != nil || got != m.wireType() {
			t.Fatalf("TypeOf(%T) = %v, %v", m, got, err)
		}
		b[len(b)-1] ^= 1
		_, wantErr := Decode(b)
		if _, err := TypeOf(b); err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("TypeOf on a damaged %T: %v, Decode says %v", m, err, wantErr)
		}
	}
	if _, err := TypeOf([]byte{0x4D}); err == nil {
		t.Fatal("TypeOf accepted a one-byte packet")
	}
}

// BenchmarkDecodeGossip400 is the receiver's cost of one round's view at
// N=400: checksum plus the validating walk.
func BenchmarkDecodeGossip400(b *testing.B) {
	payload := gossipPayload(400, 7)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeGossip400 is the sender's side of the same packet.
func BenchmarkEncodeGossip400(b *testing.B) {
	dir := membership.NewDirectory(0)
	for i := 0; i < 400; i++ {
		dir.Upsert(membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}, membership.OriginRelayed, 0, 1, 0)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendGossip(buf[:0], 1, dir, 140)
	}
}
