package membership

// Mark is one receiver's replay guard over one sender's stream of
// (incarnation, beat) pairs: the highest pair accepted so far. Only a
// message that strictly advances its sender's mark is evidence of life; a
// replayed, duplicated or stale-delivered copy fails Advance and must be
// counted and dropped before it can refresh liveness — old packets may
// delay a refresh but can never fake one.
//
// A mark is a field of the receiver's per-peer record (a Table of them, or
// of bare Marks where the scheme keeps nothing else per sender) and belongs
// to the record's guard half: it is deliberately independent of the
// Directory and survives its member's expiry, so a dead node's replayed
// traffic cannot resurrect it. The zero value is a sender never heard.
type Mark struct {
	beat uint64
	inc  uint32
	// seen distinguishes a sender never heard from one whose accepted pair
	// is (0, 0).
	seen bool
}

// Advance reports whether (inc, beat) is strictly newer than every pair
// accepted so far — a higher incarnation, or the same incarnation and a
// higher beat; anything at all from a sender not heard before — and records
// it if so.
func (m *Mark) Advance(inc uint32, beat uint64) bool {
	if m.seen && inc <= m.inc && (inc < m.inc || beat <= m.beat) {
		return false
	}
	*m = Mark{beat: beat, inc: inc, seen: true}
	return true
}
