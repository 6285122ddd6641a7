package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/membership"
	"repro/internal/wire"
)

// FuzzSeenSet holds the dedup set to the fixedSeen reference on an arbitrary
// op stream, checked whole after every op. An op is three bytes: with the
// top bit of the first set, a re-mark of an earlier mark picked by the other
// two; otherwise a burst of consecutive counters from one origin (the first
// byte's low bits, ordinary or far outside the dense ID window) starting at
// that origin's next counter, moved back by the second byte when its top bit
// is set, as long as the third byte plus one. The stream is cut once it
// has made 4×maxSeen marks. An ordinary origin is one of 32 consecutive IDs,
// which share the origin table's chunks, or one of 32 IDs 20 apart, each in
// a chunk of its own across a table spanning 620 IDs, as tree-churn's group
// leaders are: chunks are created and released as origins come and go.
func FuzzSeenSet(f *testing.F) {
	f.Add([]byte{0, 0, 255, 1, 0, 255, 2, 0, 255, 0, 0, 255, 1, 0, 255, 2, 0, 255, 3, 0, 255, 4, 0, 255, 5, 0, 255, 6, 0, 255, 7, 0, 255, 0, 0, 255, 1, 0, 255, 2, 0, 255, 3, 0, 255, 4, 0, 255, 5, 0, 255, 6, 0, 255})
	f.Add([]byte{3, 0, 7, 3, 0x83, 2, 3, 0x90, 0, 0x80, 0, 5, 3, 0, 0, 0x80, 1, 0})
	f.Add([]byte{120, 0, 9, 121, 0, 9, 122, 0, 9, 123, 0, 9, 124, 0, 9, 125, 0, 9, 126, 0, 9, 127, 0, 9})
	// Origin 620 alone in the top chunk until the spread origins 0–60 evict
	// its IDs and the chunk goes, then back; origin 21 shares a chunk with 20.
	f.Add([]byte{0x3f, 0, 255, 0x20, 0, 255, 0x21, 0, 255, 0x22, 0, 255, 0x23, 0, 255, 0x20, 0, 255, 0x21, 0, 255,
		0x22, 0, 255, 0x23, 0, 255, 0x20, 0, 255, 0x21, 0, 255, 0x22, 0, 255, 0x23, 0, 255, 0x20, 0, 255, 0x21, 0, 255,
		0x22, 0, 255, 0x23, 0, 255, 0x20, 0, 255, 0x3f, 0x85, 9, 21, 0, 30, 0x3f, 0, 3})
	far := [...]membership.NodeID{-1, -1 << 20, -1 << 31, 1 << 16, 1<<16 + 1, 1 << 30, 1<<31 - 1, 4000}
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newSeenOracle(t)
		next := map[membership.NodeID]uint32{}
		for ; len(ops) >= 3 && len(o.issued) < 4*maxSeen; ops = ops[3:] {
			a, b, c := ops[0], ops[1], ops[2]
			if a&0x80 != 0 {
				if len(o.issued) > 0 {
					o.mark(o.issued[len(o.issued)-1-(int(b)<<8|int(c))%len(o.issued)])
				}
			} else {
				origin := membership.NodeID(a & 0x1f)
				if a&0x20 != 0 {
					origin *= 20
				}
				if a&0x40 != 0 {
					origin = far[a&7]
				}
				ctr := next[origin]
				if b&0x80 != 0 {
					ctr -= uint32(b & 0x7f)
				}
				for k := 0; k <= int(c); k++ {
					o.mark(wire.UpdateID{Origin: origin, Counter: ctr})
					ctr++
				}
				next[origin] = max(next[origin], ctr)
			}
			o.check()
		}
	})
}

// seenBytes is the storage a dedup set holds: its slices' capacity and its
// origin table's.
func seenBytes(s *seenSet) int {
	b := cap(s.ring)*int(unsafe.Sizeof(s.ring[0])) +
		cap(s.origins)*int(unsafe.Sizeof(seenOrigin{})) +
		cap(s.free)*int(unsafe.Sizeof(uint16(0)))
	for _, o := range s.origins {
		b += cap(o.runs) * int(unsafe.Sizeof(seenRun{}))
	}
	tb, _, _ := tableStorage(&s.slots)
	return b + tb
}

// tableStorage reads what a membership.Table holds, through reflection
// because its fields are the membership package's own: the bytes of its
// pointer array, of its chunks and of its fallback map's records (each
// counted as its key, its pointer and its record, an underestimate), the
// number of chunks allocated, and the number of records in the map.
func tableStorage[T any](t *membership.Table[T]) (bytes, chunks, wild int) {
	v := reflect.ValueOf(t).Elem()
	ptrs := v.FieldByName("chunks")
	for i := 0; i < ptrs.Len(); i++ {
		if !ptrs.Index(i).IsNil() {
			chunks++
		}
	}
	wild = v.FieldByName("wild").Len()
	ptr := int(unsafe.Sizeof(uintptr(0)))
	var rec T
	bytes = ptrs.Cap()*ptr + chunks*int(ptrs.Type().Elem().Elem().Size()) +
		wild*(int(unsafe.Sizeof(membership.NodeID(0)))+ptr+int(unsafe.Sizeof(rec)))
	return bytes, chunks, wild
}

// liveOrigins is the number of origins whose IDs the set holds: the origin
// slots in use.
func liveOrigins(s *seenSet) int { return len(s.origins) - len(s.free) }

// slotOf is origin's slot in the set, or -1 when the set holds none of its IDs.
func slotOf(s *seenSet, origin membership.NodeID) int {
	if p := s.slots.Get(origin); p != nil && *p != 0 {
		return int(*p) - 1
	}
	return -1
}

// fillInterleaved fills n's dedup set in tree-churn's shape: origins
// 0, stride, 2×stride, … each counting up, interleaved round-robin, until
// the set is full. It returns the next counter of origin 0, whose turn is
// next.
func fillInterleaved(n *Node, origins, stride int) uint32 {
	var ctr uint32
	for i := 0; i < maxSeen; i++ {
		if i%origins == 0 {
			ctr++
		}
		n.markSeen(wire.UpdateID{Origin: membership.NodeID(i % origins * stride), Counter: ctr})
	}
	return ctr + 1
}

// TestSeenSetFootprint: a full set of 4096 IDs from 50 origins counting up
// takes at most 12 KiB for origins 0–49, where one 16-byte hash slot per ID
// took 64 KiB. tree-churn's live origins are its 50 group leaders, 0, 20,
// …, 980, each in an origin-table chunk of its own under a pointer array
// that spans them: at most 14 KiB.
func TestSeenSetFootprint(t *testing.T) {
	for _, c := range []struct {
		name   string
		stride int
		bound  int
	}{{"dense50", 1, 12 << 10}, {"leaders50", 20, 14 << 10}} {
		n := &Node{}
		fillInterleaved(n, 50, c.stride)
		if len(n.seen.ring) != maxSeen || liveOrigins(n.seen) != 50 {
			t.Fatalf("%s: the fixture holds %d IDs from %d origins", c.name, len(n.seen.ring), liveOrigins(n.seen))
		}
		if b := seenBytes(n.seen); b > c.bound {
			t.Errorf("%s: a full set over 50 origins holds %d bytes, want at most %d", c.name, b, c.bound)
		}
	}
}

// markCeiling fills a dedup set, returns a steady-state mark of a fresh ID
// (a miss, an eviction and an insert), and fails unless that mark allocates
// nothing. With a stride, it is 50 interleaved origins that far apart:
// stride 20 is tree-churn's group leaders. Without, it is one origin whose
// counters skip every fifth, so it holds 1024 runs of four and every miss
// scans all of them — the worst case of has.
func markCeiling(tb testing.TB, stride int) func() {
	n := &Node{}
	var mark func()
	if stride == 0 {
		var ctr uint32
		mark = func() {
			if ctr%5 == 4 {
				ctr++
			}
			n.markSeen(wire.UpdateID{Origin: 1, Counter: ctr})
			ctr++
		}
		for i := 0; i < maxSeen; i++ {
			mark()
		}
		if o := &n.seen.origins[0]; len(o.runs)-int(o.head) != maxSeen/4 {
			tb.Fatalf("the fixture holds %d runs, want %d", len(o.runs)-int(o.head), maxSeen/4)
		}
	} else {
		const origins = 50
		ctr, i := fillInterleaved(n, origins, stride), 0
		mark = func() {
			n.markSeen(wire.UpdateID{Origin: membership.NodeID(i * stride), Counter: ctr})
			if i++; i == origins {
				i, ctr = 0, ctr+1
			}
		}
	}
	for i := 0; i < maxSeen; i++ { // a whole turn of the ring: every slice at its steady size
		mark()
	}
	if allocs := testing.AllocsPerRun(1000, mark); allocs != 0 {
		tb.Fatalf("a steady-state mark allocates %.1f times, want 0", allocs)
	}
	if len(n.seen.ring) != maxSeen {
		tb.Fatalf("the set holds %d IDs, want it full", len(n.seen.ring))
	}
	return mark
}

// TestMarkSeenCeilingsHold runs BenchmarkMarkSeen's allocation ceilings
// under plain `go test`.
func TestMarkSeenCeilingsHold(t *testing.T) {
	for _, stride := range []int{1, 20, 0} {
		markCeiling(t, stride)
	}
}

// BenchmarkMarkSeen times one steady-state mark of a fresh ID into a full
// dedup set: 50 interleaved origins 0–49, tree-churn's 50 group leaders 20
// apart, and one origin fragmented into 1024 runs.
func BenchmarkMarkSeen(b *testing.B) {
	for _, c := range []struct {
		name   string
		stride int
	}{{"interleaved50", 1}, {"leaders50", 20}, {"fragmented1024", 0}} {
		b.Run(c.name, func(b *testing.B) {
			mark := markCeiling(b, c.stride)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark()
			}
		})
	}
}
