package membership

import (
	"math/rand"
	"slices"
	"testing"
)

// cell is a record with its presence inside it, as every Table user's is.
type cell struct {
	v    int
	live bool
}

func cellLive(c *cell) bool { return c.live }

// tableIDs mixes IDs that share a chunk, sit in far chunks, end the
// direct-indexed window, lie past it, and are negative.
var tableIDs = []NodeID{0, 1, 2, 3, 4, 5, 6, 7, 17, 399, 400, 999, 4095, maxDense - 2, maxDense - 1, maxDense, maxDense + 7, 1 << 30, -1, -2, -70000}

func liveChunks[T any](t *Table[T]) (n int) {
	for _, c := range t.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestTableMatchesMap is the model test: under seeded streams of
// get-or-create, get and delete the table holds exactly what a
// map[NodeID]cell holds, visits it in ascending ID order, hands out a *T
// that stays put while its record is in use, keeps a chunk only while one of
// its records is, and spends one fallback entry — never table length — on an
// ID outside the window.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[cell]
		ref := map[NodeID]cell{}
		held := map[NodeID]*cell{} // the pointer first handed out for a present record
		for step := 0; step < 400; step++ {
			id := tableIDs[rng.Intn(len(tableIDs))]
			switch rng.Intn(4) {
			case 0, 1:
				c := tab.Ensure(id)
				if _, present := ref[id]; !present {
					if c.live {
						t.Fatalf("seed %d step %d: Ensure(%v) created a record already in use: %+v", seed, step, id, *c)
					}
					held[id] = c
				}
				*c = cell{v: step, live: true}
				ref[id] = *c
			case 2:
				c := tab.Get(id)
				want, present := ref[id]
				if got := c != nil && c.live; got != present || (present && *c != want) {
					t.Fatalf("seed %d step %d: Get(%v) = %+v, the map holds %+v (present %v)", seed, step, id, c, want, present)
				}
			case 3:
				tab.Delete(id, cellLive)
				delete(ref, id)
				delete(held, id)
			}
			for id, p := range held {
				if tab.Get(id) != p {
					t.Fatalf("seed %d step %d: %v's record moved while in use", seed, step, id)
				}
			}
		}

		var want []NodeID
		chunks, wild := map[NodeID]bool{}, 0
		for id := range ref {
			want = append(want, id)
			if id >= 0 && id < maxDense {
				chunks[id>>chunkShift] = true
			} else {
				wild++
			}
		}
		slices.Sort(want)
		var got []NodeID
		last, first := NodeID(0), true
		tab.Each(func(id NodeID, c *cell) {
			if !first && id <= last {
				t.Fatalf("seed %d: Each visited %v after %v", seed, id, last)
			}
			last, first = id, false
			if c.live {
				got = append(got, id)
				if *c != ref[id] {
					t.Fatalf("seed %d: Each(%v) = %+v, the map holds %+v", seed, id, *c, ref[id])
				}
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Each visited %v in use, the map holds %v", seed, got, want)
		}
		if liveChunks(&tab) != len(chunks) || len(tab.wild) != wild || len(tab.chunks) > maxDense/chunkLen {
			t.Fatalf("seed %d: %d chunks in a table of %d and %d fallback entries for %d chunks' worth and %d wild IDs",
				seed, liveChunks(&tab), len(tab.chunks), len(tab.wild), len(chunks), wild)
		}
	}
}

// TestTableEachToleratesMutation: the visit's callback may create and delete
// records — core expires mates and rapid ends sessions from inside one.
func TestTableEachToleratesMutation(t *testing.T) {
	var tab Table[cell]
	for _, id := range []NodeID{-3, 1, 2, 9, maxDense + 1} {
		*tab.Ensure(id) = cell{v: 1, live: true}
	}
	var seen []NodeID
	tab.Each(func(id NodeID, c *cell) {
		if !c.live {
			return
		}
		seen = append(seen, id)
		switch id {
		case 1:
			*tab.Ensure(5000) = cell{live: true} // grows the chunk table mid-visit
			tab.Delete(2, cellLive)
		case 9:
			tab.Delete(9, cellLive) // releases the chunk being visited
			tab.Delete(maxDense+1, cellLive)
		}
	})
	if want := []NodeID{-3, 1, 9, 5000}; !slices.Equal(seen, want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
}

// BenchmarkTable carries the allocation ceilings: looking up or re-ensuring
// a known ID and a full visit allocate nothing.
func BenchmarkTable(b *testing.B) {
	var tab Table[cell]
	for id := NodeID(0); id < 1000; id++ {
		tab.Ensure(id).live = true
	}
	id, sum := NodeID(0), 0
	lookup := func() {
		if c := tab.Get(id); c != nil && tab.Ensure(id) == c {
			sum++
		}
		if id++; id == 1000 {
			id = 0
		}
	}
	visit := func() {
		tab.Each(func(_ NodeID, c *cell) {
			if c.live {
				sum++
			}
		})
	}
	if allocs := testing.AllocsPerRun(1000, lookup); allocs != 0 {
		b.Fatalf("Get+Ensure of a known ID allocates %.1f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, visit); allocs != 0 {
		b.Fatalf("a full visit allocates %.1f, want 0", allocs)
	}
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lookup()
		}
	})
	b.Run("visit1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			visit()
		}
	})
	if sum == 0 {
		b.Fatal("nothing was found")
	}
}
