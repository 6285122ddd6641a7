package membership

// Freshness is one receiver's replay guard over a stream of per-sender
// (incarnation, beat) pairs: the highest pair accepted from each sender.
// Only a message that strictly advances its sender's mark is evidence of
// life; a replayed, duplicated or stale-delivered copy fails Advance and
// must be counted and dropped before it can refresh liveness — old packets
// may delay a refresh but can never fake one.
//
// The table belongs to whoever receives the stream (a node, or one level of
// one node) and is deliberately independent of the Directory: a mark
// survives its member's expiry, so a dead node's replayed traffic cannot
// resurrect it. The zero value is ready to use.
//
// Marks are stored like the directory's entries: by value, indexed by ID,
// freshLen consecutive IDs to a chunk that is allocated when the first of
// them is heard, under a pointer table that covers at most the [0, maxDense)
// window. A receiver that hears a few dozen senders out of thousands pays
// for a handful of chunks; an ID outside the window costs one map entry and
// cannot size anything.
type Freshness struct {
	chunks []*[freshLen]freshMark
	wild   map[NodeID]*freshMark
}

// freshMark is one sender's high-water mark; seen distinguishes a sender
// never heard from one whose accepted pair is (0, 0).
type freshMark struct {
	beat uint64
	inc  uint32
	seen bool
}

// Four 16-byte marks are one cache line, and pointer-free, so the
// collector never scans a chunk.
const (
	freshShift = 2
	freshLen   = 1 << freshShift
)

// Advance reports whether (inc, beat) is strictly newer than every pair
// accepted from id so far — a higher incarnation, or the same incarnation
// and a higher beat; anything at all from a sender not heard before — and
// records it if so.
func (f *Freshness) Advance(id NodeID, inc uint32, beat uint64) bool {
	m := f.mark(id)
	if m.seen && inc <= m.inc && (inc < m.inc || beat <= m.beat) {
		return false
	}
	*m = freshMark{beat: beat, inc: inc, seen: true}
	return true
}

// mark returns id's slot, creating it unseen if need be. A negative ID
// converts to an index beyond any table, so it takes the same branch as one
// past the window.
func (f *Freshness) mark(id NodeID) *freshMark {
	if ci := uint32(id) >> freshShift; ci < uint32(len(f.chunks)) {
		if c := f.chunks[ci]; c != nil {
			return &c[id&(freshLen-1)]
		}
	}
	return f.newMark(id)
}

func (f *Freshness) newMark(id NodeID) *freshMark {
	if id < 0 || id >= maxDense {
		m := f.wild[id]
		if m == nil {
			if f.wild == nil {
				f.wild = make(map[NodeID]*freshMark)
			}
			m = new(freshMark)
			f.wild[id] = m
		}
		return m
	}
	ci := int(id) >> freshShift
	if ci >= len(f.chunks) {
		grown := make([]*[freshLen]freshMark, growTo(ci+1, maxDense/freshLen))
		copy(grown, f.chunks)
		f.chunks = grown
	}
	c := new([freshLen]freshMark)
	f.chunks[ci] = c
	return &c[id&(freshLen-1)]
}
