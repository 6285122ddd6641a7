package traffic

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// refWheel is the reference the block wheel is held to: one slice per slot,
// appended to and drained whole.
type refWheel struct {
	ring   [][]int32
	cursor int
}

func (r *refWheel) after(i int32, ticks int) {
	s := (r.cursor + ticks) % len(r.ring)
	r.ring[s] = append(r.ring[s], i)
}

// wheelPair drives a Layer's wheel and the reference in lockstep.
type wheelPair struct {
	l       *Layer
	ref     refWheel
	entries int // entries in the wheel
}

func newWheelPair(slots int) *wheelPair {
	return &wheelPair{
		l:   &Layer{ring: make([]chain, slots)},
		ref: refWheel{ring: make([][]int32, slots)},
	}
}

func (w *wheelPair) after(i int32, ticks int) {
	w.l.after(i, ticks)
	w.ref.after(i, ticks)
	w.entries++
}

// drain empties the current slot as onTick does, calling visit on each entry
// (which may add entries, as issue and hedgeCheck do), and advances both
// cursors. It returns the entries in drain order, appended to got.
func (w *wheelPair) drain(got []int32, visit func(int32)) []int32 {
	l := w.l
	for b := l.due(); b != nil; b = l.recycle(b) {
		for _, i := range b.e[:b.n] {
			got = append(got, i)
			w.entries--
			visit(i)
		}
	}
	l.cursor = (l.cursor + 1) % len(l.ring)
	w.ref.ring[w.ref.cursor] = w.ref.ring[w.ref.cursor][:0]
	w.ref.cursor = (w.ref.cursor + 1) % len(w.ref.ring)
	return got
}

// inUse counts the blocks chained from the wheel's slots.
func (w *wheelPair) inUse() int {
	n := 0
	for _, s := range w.l.ring {
		for b := s.head; b != nil; b = b.next {
			n++
		}
	}
	return n
}

// TestWheelMatchesReference drives the block wheel and a slice-per-slot
// reference with one seeded sequence of adds and drains: a closed loop of
// sessions that reschedule themselves from the drain across the whole range
// [1, len(ring)-1], hedge checks (^i), several of them pending for one
// session, and bursts that fill a slot past two blocks. Every tick drains the
// same entries in the same order from both, and the wheel never holds more
// blocks than its entries fill plus one partial block per slot.
//
// Mutant: recycle leaves a freed block's count as it was.
// Mutant: a full tail block's successor is chained at the head, so a slot drains its newest block first.
// Mutant: due leaves the drained slot's chain in place.
func TestWheelMatchesReference(t *testing.T) {
	const slots, sessions = 17, 3000
	w := newWheelPair(slots)
	rng := rand.New(rand.NewSource(7))
	ticks := func() int { return 1 + rng.Intn(slots-1) }
	for i := int32(0); i < sessions; i++ {
		w.after(i, ticks())
	}
	reschedule := func(i int32) {
		if i < 0 {
			return // a hedge check fires once
		}
		w.after(i, ticks())
		if rng.Intn(8) == 0 {
			w.after(^i, ticks())
		}
	}
	var got []int32
	for tick := 0; tick < 40*slots; tick++ {
		switch tick % 50 {
		case 5: // one slot more than two blocks deep
			d := ticks()
			for k := int32(0); k < 2*blockLen+300; k++ {
				w.after(^(k % 5), d)
			}
		case 30: // several pending hedge checks for one session
			for k := 0; k < 4; k++ {
				w.after(^int32(9), ticks())
			}
		}
		if bound := (w.entries+blockLen-1)/blockLen + slots; w.inUse() > bound {
			t.Fatalf("tick %d: %d blocks in use for %d entries, want at most %d", tick, w.inUse(), w.entries, bound)
		}
		want := append([]int32(nil), w.ref.ring[w.ref.cursor]...)
		got = w.drain(got[:0], reschedule)
		if !slices.Equal(got, want) {
			t.Fatalf("tick %d: drained %d entries %v…, reference %d entries %v…",
				tick, len(got), got[:min(8, len(got))], len(want), want[:min(8, len(want))])
		}
	}
}

// TestWheelWarmLapAllocatesNothing: once the wheel has held its population,
// a lap of drains that reschedule every entry takes all its blocks from the
// free list.
func TestWheelWarmLapAllocatesNothing(t *testing.T) {
	const slots = 17
	l := &Layer{ring: make([]chain, slots)}
	for s := 1; s < slots; s++ {
		for k := 0; k < s*200; k++ { // slots from one partial block to over three
			l.after(int32(k), s)
		}
	}
	reschedule := func(i int32) { l.after(i, slots-1) }
	lap := func() {
		for s := 0; s < slots; s++ {
			for b := l.due(); b != nil; b = l.recycle(b) {
				for _, i := range b.e[:b.n] {
					reschedule(i)
				}
			}
			l.cursor = (l.cursor + 1) % slots
		}
	}
	lap()
	if allocs := testing.AllocsPerRun(5, lap); allocs != 0 {
		t.Fatalf("a warm lap allocated %v times, want 0", allocs)
	}
}

// TestClampTicksStaysOffTheDrainedSlot pins clampTicks to [1, len(ring)-1]:
// a 0 would add into the slot being drained, and len(ring) would wrap onto
// it.
func TestClampTicksStaysOffTheDrainedSlot(t *testing.T) {
	l := &Layer{ring: make([]chain, 17)}
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{-tick, 1}, {0, 1}, {tick / 2, 1}, {tick, 1}, {5*tick + tick/2, 5},
		{16 * tick, 16}, {17 * tick, 16}, {time.Hour, 16},
	} {
		if got := l.clampTicks(c.d); got != c.want {
			t.Errorf("clampTicks(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestBlockIsFourKiB: a block fills its size class exactly.
func TestBlockIsFourKiB(t *testing.T) {
	if size := unsafe.Sizeof(block{}); size != 4096 {
		t.Fatalf("block is %d bytes, want 4096", size)
	}
}
