package membership

import (
	"math/rand"
	"testing"
)

// mapGuard is the replay guard a Table of Marks replaced, verbatim from the three
// scheme packages: a map from sender to its accepted pair, and the
// comparison they each wrote out.
type mapGuard map[NodeID]guardMark

type guardMark struct {
	inc  uint32
	beat uint64
}

func (g mapGuard) advance(id NodeID, inc uint32, beat uint64) bool {
	mark, marked := g[id]
	if marked && inc <= mark.inc && (inc < mark.inc || beat <= mark.beat) {
		return false
	}
	g[id] = guardMark{inc: inc, beat: beat}
	return true
}

// TestFreshnessMatchesMapGuard is the differential property: over seeded
// histories of interleaved senders — IDs that share a chunk, sit in far
// chunks, lie outside the direct-indexed window or are negative; beats that
// repeat, advance and fall back; incarnations that bump and regress; the
// all-zero pair a never-heard sender may legitimately send — Advance on the
// sender's Mark gives the verdict of the map and comparison it replaced,
// call for call.
func TestFreshnessMatchesMapGuard(t *testing.T) {
	ids := []NodeID{0, 1, 2, 3, 4, 5, 17, 399, 400, 999, 4095, maxDense - 1, maxDense, maxDense + 7, 1 << 30, -1, -2, -70000}
	var accepted, rejected int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f Table[Mark]
		ref := mapGuard{}
		for step := 0; step < 300; step++ {
			id := ids[rng.Intn(len(ids))]
			inc := uint32(rng.Intn(3))
			beat := uint64(rng.Intn(12))
			if rng.Intn(16) == 0 {
				beat = ^uint64(0) - uint64(rng.Intn(2)) // a hostile sender pins its mark high
			}
			got, want := f.Ensure(id).Advance(inc, beat), ref.advance(id, inc, beat)
			if got != want {
				t.Fatalf("seed %d step %d: Advance(%v, %d, %d) = %v, the map guard says %v", seed, step, id, inc, beat, got, want)
			}
			if got {
				accepted++
			} else {
				rejected++
			}
		}
		// The table ends holding exactly the map's marks: offering a mark
		// again never advances, and a sender the history skipped is unseen.
		for _, id := range ids {
			mark, marked := ref[id]
			if marked && f.Ensure(id).Advance(mark.inc, mark.beat) {
				t.Fatalf("seed %d: %v's own mark (%d, %d) advanced it", seed, id, mark.inc, mark.beat)
			}
			if !marked && !f.Ensure(id).Advance(0, 0) {
				t.Fatalf("seed %d: %v was never heard, yet (0, 0) did not advance it", seed, id)
			}
		}
	}
	if accepted < 10000 || rejected < 10000 {
		t.Fatalf("histories too one-sided to mean anything: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestFreshnessWildIDsCostBoundedStorage: a sender anywhere in the
// direct-indexed window costs one chunk and a table that never outgrows the
// window, a sender outside it one map entry, and a receiver that hears a
// group of neighbours out of thousands holds a handful of chunks — not a
// slot per possible sender.
func TestFreshnessWildIDsCostBoundedStorage(t *testing.T) {
	chunks := func(f *Table[Mark]) (n int) {
		for _, c := range f.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	var f Table[Mark]
	wild := []NodeID{maxDense - 1, 40000, 40001, maxDense, 1<<31 - 1, -1, -1 << 31}
	for _, id := range wild {
		if m := f.Ensure(id); !m.Advance(1, 1) || m.Advance(1, 1) || !m.Advance(1, 2) {
			t.Fatalf("wild ID %v is not guarded like any other", id)
		}
	}
	if got := chunks(&f); got != 2 || len(f.chunks) > maxDense/chunkLen || len(f.wild) != 4 {
		t.Fatalf("%d chunks in a table of %d and %d map entries for %v", got, len(f.chunks), len(f.wild), wild)
	}

	var group Table[Mark]
	for id := NodeID(880); id < 900; id++ {
		group.Ensure(id).Advance(1, 1)
	}
	if got := chunks(&group); got > 20/chunkLen+1 || len(group.chunks) > 256 || group.wild != nil {
		t.Fatalf("20 neighbouring senders cost %d chunks, a table of %d and a map %v", got, len(group.chunks), group.wild)
	}
}

// freshnessFixture is 400 receivers' tables for 400 senders, visited as a
// flat cluster's heartbeats arrive — one sender's beat at every receiver,
// then the next sender's — so that consecutive calls land in different
// receivers' tables, as on the receive path, not on one warm mark.
type freshnessFixture struct {
	tables [400]Table[Mark]
	beat   uint64
	from   NodeID
	to     int
}

func (x *freshnessFixture) step() bool {
	if x.to == len(x.tables) {
		x.to = 0
		if x.from++; x.from == 400 {
			x.from = 0
			x.beat++
		}
	}
	x.to++
	return x.tables[x.to-1].Ensure(x.from).Advance(1, x.beat)
}

func BenchmarkFreshnessAdvance(b *testing.B) {
	x := &freshnessFixture{beat: 1}
	for i := 0; i < 400*400; i++ { // every chunk allocated
		x.step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { x.step() }); allocs != 0 {
		b.Fatalf("Advance on a known sender allocates %.1f per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.step() {
			b.Fatal("a fresh beat was rejected")
		}
	}
}
