package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/membership"
)

// goodHeader reports whether b passes every header check of Decode and is
// tagged t, so that only its body decides whether it decodes.
func goodHeader(b []byte, t Type) bool {
	return len(b) >= HeaderLen && binary.LittleEndian.Uint16(b) == Magic && b[2] == Version && Type(b[3]) == t &&
		binary.LittleEndian.Uint32(b[4:]) == crc32.Checksum(b[HeaderLen:], crcTable)
}

// checkViewAgainstReference decodes b (good header, any body) both ways and
// fails unless they agree on acceptance, on the error, and on every field
// of every record — and, for a rejected body, unless nothing came back that
// a receiver could apply.
func checkViewAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	want, wantErr := refDecodeDirectory(b)
	got := decodeLike(t, b, wantErr)
	if got == nil {
		return
	}
	v := got.(*DirectoryView)
	if v.From != want.From || v.Ask != want.Ask || v.infos.n != len(want.Infos) {
		t.Fatalf("view header (%v %v %d) != (%v %v %d)", v.From, v.Ask, v.infos.n, want.From, want.Ask, len(want.Infos))
	}
	checkCursor(t, v.Cursor(), want.Infos)
}

// randomInfos draws a snapshot with everything a real or hostile publisher
// can put in one: plain records, services with partitions and parameters,
// attributes, empty and long strings, negative and huge IDs, extreme
// counters.
func randomInfos(rng *rand.Rand, n int) []membership.MemberInfo {
	str := func() string { return string(make([]byte, rng.Intn(5)*rng.Intn(5))) + fmt.Sprint(rng.Intn(99)) }
	kvs := func() []membership.KV {
		var out []membership.KV
		for i := rng.Intn(3); i > 0; i-- {
			out = append(out, membership.KV{Key: str(), Value: str()})
		}
		return out
	}
	infos := make([]membership.MemberInfo, n)
	for i := range infos {
		m := membership.MemberInfo{
			Node:        membership.NodeID(rng.Intn(2000)),
			Incarnation: uint32(rng.Intn(4)),
			Version:     uint64(rng.Intn(4)),
			Beat:        uint64(rng.Intn(1000)),
		}
		switch rng.Intn(8) {
		case 0:
			m.Node = membership.NodeID(-1 - rng.Intn(5))
		case 1:
			m.Node = membership.NodeID(rng.Int31())
			m.Beat = rng.Uint64()
		}
		if rng.Intn(3) == 0 {
			for s := rng.Intn(3); s >= 0; s-- {
				decl := membership.ServiceDecl{Name: str(), Params: kvs()}
				for p := rng.Intn(4); p > 0; p-- {
					decl.Partitions = append(decl.Partitions, rng.Int31n(64))
				}
				m.Services = append(m.Services, decl)
			}
			m.Attrs = kvs()
		}
		infos[i] = m
	}
	return infos
}

func TestDirectoryViewMatchesMaterialisingDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		msg := &DirectoryMsg{From: membership.NodeID(rng.Intn(50)), Ask: rng.Intn(2) == 0, Infos: randomInfos(rng, rng.Intn(40))}
		checkViewAgainstReference(t, Encode(msg))
	}
}

// TestDirectoryRejectsDamageAtEveryOffset cuts a snapshot short at every
// length and overwrites every body byte with values that turn counts and
// lengths hostile, resealing the checksum each time so the body walk — not
// the CRC — is what has to notice. Whatever the view decoder accepts, the
// materialising decoder must accept with identical content.
func TestDirectoryRejectsDamageAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	good := Encode(&DirectoryMsg{From: 4, Ask: true, Infos: append(randomInfos(rng, 6), sampleInfo())})
	for cut := HeaderLen; cut < len(good); cut++ {
		b := reseal(append([]byte(nil), good[:cut]...))
		if _, err := Decode(b); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", cut, len(good))
		}
		checkViewAgainstReference(t, b)
	}
	for off := HeaderLen; off < len(good); off++ {
		for _, v := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			b := append([]byte(nil), good...)
			b[off] = v
			checkViewAgainstReference(t, reseal(b))
		}
	}
}

func TestEncodeDirectoryMatchesMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 50; round++ {
		dir := membership.NewDirectory(0)
		for _, info := range randomInfos(rng, rng.Intn(60)) {
			dir.Upsert(info, membership.OriginRelayed, 1, 2, 0)
		}
		ask := round%2 == 0
		got := AppendDirectory(nil, 9, ask, dir)
		want := Encode(&DirectoryMsg{From: 9, Ask: ask, Infos: dir.Snapshot()})
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: AppendDirectory differs from Encode(DirectoryMsg)", round)
		}
		if got := AppendDirectory([]byte("lead"), 9, ask, dir); !bytes.Equal(got, append([]byte("lead"), want...)) {
			t.Fatalf("round %d: AppendDirectory after other bytes differs from them plus Encode(DirectoryMsg)", round)
		}
	}
}

func directoryPayload(n int) []byte {
	infos := make([]membership.MemberInfo, n)
	for i := range infos {
		infos[i] = membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}
	}
	return Encode(&DirectoryMsg{From: 1, Infos: infos})
}

// TestDirectoryCursorDoesNotAllocate pins the receive side's contract:
// walking a view and reading prefixes costs no allocation.
func TestDirectoryCursorDoesNotAllocate(t *testing.T) {
	m, err := Decode(directoryPayload(1000))
	if err != nil {
		t.Fatal(err)
	}
	v := m.(*DirectoryView)
	var sum uint64
	allocs := testing.AllocsPerRun(20, func() {
		for c := v.Cursor(); c.Next(); {
			sum += c.Prefix().Beat
		}
	})
	if allocs != 0 || sum == 0 {
		t.Fatalf("walking a 1000-record view allocates %.1f per pass (beat sum %d), want 0", allocs, sum)
	}
}

// BenchmarkDecodeDirectory1000 is one LP's cost of a leader's republication
// at N=1000: checksum plus the validating walk.
func BenchmarkDecodeDirectory1000(b *testing.B) {
	payload := directoryPayload(1000)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDirectory1000 is the publisher's side of the same packet.
func BenchmarkEncodeDirectory1000(b *testing.B) {
	dir := membership.NewDirectory(0)
	for i := 0; i < 1000; i++ {
		dir.Upsert(membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}, membership.OriginRelayed, 1, 1, 0)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendDirectory(buf[:0], 1, false, dir)
	}
}
