package core

import (
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
// has made 4×maxSeen marks.
func FuzzSeenSet(f *testing.F) {
	f.Add([]byte{0, 0, 255, 1, 0, 255, 2, 0, 255, 0, 0, 255, 1, 0, 255, 2, 0, 255, 3, 0, 255, 4, 0, 255, 5, 0, 255, 6, 0, 255, 7, 0, 255, 0, 0, 255, 1, 0, 255, 2, 0, 255, 3, 0, 255, 4, 0, 255, 5, 0, 255, 6, 0, 255})
	f.Add([]byte{3, 0, 7, 3, 0x83, 2, 3, 0x90, 0, 0x80, 0, 5, 3, 0, 0, 0x80, 1, 0})
	f.Add([]byte{120, 0, 9, 121, 0, 9, 122, 0, 9, 123, 0, 9, 124, 0, 9, 125, 0, 9, 126, 0, 9, 127, 0, 9})
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
				origin := membership.NodeID(a & 0x3f)
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

// seenBytes is the slice capacity a dedup set holds.
func seenBytes(s *seenSet) int {
	b := cap(s.ring)*int(unsafe.Sizeof(s.ring[0])) +
		cap(s.origins)*int(unsafe.Sizeof(seenOrigin{})) +
		cap(s.free)*int(unsafe.Sizeof(uint16(0))) +
		cap(s.index)*int(unsafe.Sizeof(seenKey{}))
	for _, o := range s.origins {
		b += cap(o.runs) * int(unsafe.Sizeof(seenRun{}))
	}
	return b
}

// fillInterleaved fills n's dedup set in tree-churn's shape: origins each
// counting up, interleaved round-robin, until the set is full. It returns
// the next counter of origin 0, whose turn is next.
func fillInterleaved(n *Node, origins int) uint32 {
	var ctr uint32
	for i := 0; i < maxSeen; i++ {
		if i%origins == 0 {
			ctr++
		}
		n.markSeen(wire.UpdateID{Origin: membership.NodeID(i % origins), Counter: ctr})
	}
	return ctr + 1
}

// TestSeenSetFootprint: a full set of 4096 IDs from 50 origins counting up
// — what every node of tree-churn holds — takes at most 12 KiB, where one
// 16-byte hash slot per ID took 64 KiB.
func TestSeenSetFootprint(t *testing.T) {
	n := &Node{}
	fillInterleaved(n, 50)
	if len(n.seen.ring) != maxSeen || len(n.seen.index) != 50 {
		t.Fatalf("the fixture holds %d IDs from %d origins", len(n.seen.ring), len(n.seen.index))
	}
	if b := seenBytes(n.seen); b > 12<<10 {
		t.Fatalf("a full set over 50 origins holds %d bytes, want at most %d", b, 12<<10)
	}
}

// markCeiling fills a dedup set, returns a steady-state mark of a fresh ID
// (a miss, an eviction and an insert), and fails unless that mark allocates
// nothing. interleaved is tree-churn's shape; fragmented is one origin whose
// counters skip every fifth, so it holds 1024 runs of four and every miss
// scans all of them — the worst case of has.
func markCeiling(tb testing.TB, fragmented bool) func() {
	n := &Node{}
	var mark func()
	if fragmented {
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
		ctr, i := fillInterleaved(n, origins), 0
		mark = func() {
			n.markSeen(wire.UpdateID{Origin: membership.NodeID(i), Counter: ctr})
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
	markCeiling(t, false)
	markCeiling(t, true)
}

// BenchmarkMarkSeen times one steady-state mark of a fresh ID into a full
// dedup set: tree-churn's shape, and one origin fragmented into 1024 runs.
func BenchmarkMarkSeen(b *testing.B) {
	for _, c := range []struct {
		name       string
		fragmented bool
	}{{"interleaved50", false}, {"fragmented1024", true}} {
		b.Run(c.name, func(b *testing.B) {
			mark := markCeiling(b, c.fragmented)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark()
			}
		})
	}
}
