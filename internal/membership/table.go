package membership

import "slices"

// Table is the one storage every daemon keys by node (DESIGN.md, "Per-peer
// state"): what it knows about peer p is one record of type T, held by value
// and indexed by p's ID. The zero value is ready to use.
//
// Records for IDs in [0, maxDense) — every ID a real deployment mints —
// live chunkLen consecutive IDs to a chunk that is allocated when the first
// of them is created and never moves, under a pointer table that never
// outgrows the window: a lookup is two array loads, a *T stays valid while
// its record is in use, a visit in ID order streams through memory, and
// hearing twenty peers out of thousands costs half a dozen chunks. An ID
// outside the window (hostile or misconfigured) costs one fallback map
// entry and sizes nothing.
//
// Presence is the record's own business — a flag that costs T nothing
// (Entry keeps it in what would be padding) — so the table adds no byte per
// record: a record never created and a zero record read the same to every
// user, Get may return either, and Each visits both.
type Table[T any] struct {
	chunks []*[chunkLen]T
	wild   map[NodeID]*T
}

// maxDense bounds the directly-indexed window and chunkLen is the number of
// consecutive IDs stored together. Four directory entries are 160 bytes and
// four content records 192, both exact allocator size classes, and the
// entries' chunk holds no pointer, so the collector never scans it; four
// 16-byte replay marks are one cache line. A pointer-bearing chunk must stay
// below 512 bytes, from which the runtime prefixes it with a header that
// pushes a power-of-two chunk into the next class. A table filled in ID
// order draws consecutive chunks from one span, so the small chunk costs an
// ascending visit nothing.
const (
	maxDense   = 1 << 16
	chunkShift = 2
	chunkLen   = 1 << chunkShift
)

// chunk returns the chunk holding id's record, or nil. A negative ID
// converts to an index beyond any table, like one past the window.
func (t *Table[T]) chunk(id NodeID) *[chunkLen]T {
	if ci := uint32(id) >> chunkShift; ci < uint32(len(t.chunks)) {
		return t.chunks[ci]
	}
	return nil
}

// Get returns id's record, or nil if no storage holds one.
func (t *Table[T]) Get(id NodeID) *T {
	if c := t.chunk(id); c != nil {
		return &c[id&(chunkLen-1)]
	}
	return t.wild[id]
}

// Ensure returns id's record, creating a zero one if there is none.
func (t *Table[T]) Ensure(id NodeID) *T {
	if c := t.chunk(id); c != nil {
		return &c[id&(chunkLen-1)]
	}
	return t.create(id)
}

func (t *Table[T]) create(id NodeID) *T {
	if id < 0 || id >= maxDense {
		r := t.wild[id]
		if r == nil {
			if t.wild == nil {
				t.wild = make(map[NodeID]*T)
			}
			r = new(T)
			t.wild[id] = r
		}
		return r
	}
	ci := int(id) >> chunkShift
	if ci >= len(t.chunks) {
		// Round the table up so creations with ascending IDs reallocate
		// O(log n) times, capped at the window.
		size := 4
		for size <= ci {
			size *= 2
		}
		grown := make([]*[chunkLen]T, min(size, maxDense/chunkLen))
		copy(grown, t.chunks)
		t.chunks = grown
	}
	c := new([chunkLen]T)
	t.chunks[ci] = c
	return &c[id&(chunkLen-1)]
}

// Delete zeroes id's record and releases the chunk it shares with its
// neighbours once inUse reports none of them occupied.
func (t *Table[T]) Delete(id NodeID, inUse func(*T) bool) {
	c := t.chunk(id)
	if c == nil {
		delete(t.wild, id)
		return
	}
	var zero T
	c[id&(chunkLen-1)] = zero
	for i := range c {
		if inUse(&c[i]) {
			return
		}
	}
	t.chunks[uint32(id)>>chunkShift] = nil
}

// DeleteWild deletes every record outside the window that drop reports.
func (t *Table[T]) DeleteWild(drop func(*T) bool) {
	for id, r := range t.wild {
		if drop(r) {
			delete(t.wild, id)
		}
	}
}

// Each calls fn for every record that has storage, in ascending ID order —
// the order every protocol decision that walks peers is specified in, so no
// caller collects and sorts. fn may create and delete records; one created
// ahead of the visit is visited.
func (t *Table[T]) Each(fn func(NodeID, *T)) {
	wild := make([]NodeID, 0, len(t.wild))
	for id := range t.wild {
		wild = append(wild, id)
	}
	slices.Sort(wild)
	for len(wild) > 0 && wild[0] < 0 {
		if r := t.wild[wild[0]]; r != nil {
			fn(wild[0], r)
		}
		wild = wild[1:]
	}
	for ci := 0; ci < len(t.chunks); ci++ {
		if c := t.chunks[ci]; c != nil {
			for i := range c {
				fn(NodeID(ci<<chunkShift|i), &c[i])
			}
		}
	}
	for _, id := range wild {
		if r := t.wild[id]; r != nil {
			fn(id, r)
		}
	}
}
