package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback owned by the engine. Events are pooled and
// reused after they fire or are reaped, so external code must never hold a
// bare *Event; Timer (which carries a generation stamp) is the safe handle.
// The zero Event is invalid.
type Event struct {
	at   time.Duration
	seq  uint64 // tie-break so equal-time events fire in schedule order
	fn   func()
	call Callback // non-closure alternative to fn (exactly one is set)
	next *Event   // intrusive link: wheel slot list, or engine free list
	gen  uint32   // bumped on every release; stale Timer handles mismatch
	dead bool     // lazily cancelled; reaped when its slot drains
}

// Callback is the allocation-free alternative to a func() callback: hot
// callers (network deliveries, tickers) implement Fire on a pooled or
// long-lived struct and pass it to ScheduleCall, avoiding the per-event
// closure the func() form costs.
type Callback interface {
	Fire()
}

// Timer is a handle to a scheduled event that can be stopped or queried.
// It stays valid after the event fires: the generation stamp makes Stop and
// Pending harmless no-ops once the underlying Event has been recycled. The
// handle is three words and copies freely: Schedule returns it boxed for
// callers that keep a *Timer, ScheduleCallTimer returns it by value so a
// pooled record can hold its own timeout without a second allocation. The
// zero Timer is never pending.
type Timer struct {
	e   *Engine
	ev  *Event
	gen uint32
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer; it reports whether the timer was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	return t.e.cancel(t.ev, t.gen)
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// one goroutine drives it via Run/Step and all callbacks execute on that
// goroutine.
//
// Internally events live in a hierarchical timer wheel (see wheel.go) rather
// than a global heap: scheduling and cancelling are O(1), periodic tickers
// rearm without touching other pending events, and the (at, seq) firing
// order of the old heap is reproduced exactly by sorting each wheel slot as
// the clock reaches it. Event structs and their slot links are pooled, so a
// steady-state schedule/fire cycle does not allocate.
type Engine struct {
	now     time.Duration
	nextSeq uint64
	rng     *rand.Rand
	steps   uint64
	live    int // scheduled and not yet fired or cancelled

	wheel wheel

	// curBuf holds the current slot's events sorted by (at, seq); curPos is
	// the firing cursor. bufTick is the wheel tick curBuf belongs to, so
	// same-instant schedules made while the slot fires can be spliced into
	// the not-yet-fired tail at their correct position.
	curBuf  []*Event
	curPos  int
	bufTick uint64

	free *Event // recycled Event structs, linked via next
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed, so identical schedules replay identically.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), bufTick: noTick}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of logical events executed so far: one per fired
// callback, plus whatever callbacks that stand for several simultaneous
// events have added with AddSteps.
func (e *Engine) Steps() uint64 { return e.steps }

// AddSteps counts n more logical events against the callback that is
// firing. A callback that stands for k events the engine could not have told
// apart — k consecutive sequence numbers at one instant, such as the copies
// of one multicast (netsim's runs) — occupies one queue entry and one
// sequence number, fires once, and calls AddSteps(k-1), so Steps reports
// what the simulation did and not how it was batched. Pending counts queue
// entries: such a callback is one.
func (e *Engine) AddSteps(n int) { e.steps += uint64(n) }

// Schedule runs fn after delay of virtual time and returns a cancellable
// timer. A negative delay is treated as zero (fn runs at the current time,
// after already-queued events for that instant).
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	ev := e.add(delay, fn, nil)
	return &Timer{e: e, ev: ev, gen: ev.gen}
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) *Timer {
	return e.Schedule(at-e.now, fn)
}

// ScheduleCall is Schedule for the Callback form: it fires c.Fire() after
// delay without allocating a closure or a Timer handle. It is the hot-path
// variant — a pooled delivery struct or a ticker schedules itself here with
// zero allocations per event. The event cannot be cancelled; a caller that
// may need to cancel uses ScheduleCallTimer.
func (e *Engine) ScheduleCall(delay time.Duration, c Callback) {
	e.ScheduleCallTimer(delay, c)
}

// ScheduleCallTimer is ScheduleCall returning a cancellable handle by value:
// a timeout that is usually cancelled (a request's reply deadline, a ticker's
// pending tick) costs neither a closure nor a heap Timer. It consumes one
// sequence number exactly like Schedule and ScheduleCall, so swapping one
// form for another never reorders a run.
func (e *Engine) ScheduleCallTimer(delay time.Duration, c Callback) Timer {
	if c == nil {
		panic("sim: ScheduleCall with nil callback")
	}
	ev := e.add(delay, nil, c)
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// add allocates (or recycles) an event, stamps it with the next sequence
// number, and inserts it into the wheel.
func (e *Engine) add(delay time.Duration, fn func(), c Callback) *Event {
	if delay < 0 {
		delay = 0
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.at = e.now + delay
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.call = c
	ev.dead = false
	e.nextSeq++
	e.live++
	e.insert(ev)
	return ev
}

// cancel implements Timer.Stop against the pooled events.
func (e *Engine) cancel(ev *Event, gen uint32) bool {
	if ev == nil || ev.gen != gen || ev.dead {
		return false
	}
	ev.dead = true
	e.live--
	return true
}

// release returns a fired or reaped event to the free list and invalidates
// outstanding Timer handles by bumping the generation.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.call = nil
	ev.next = e.free
	e.free = ev
}

// peek returns the next live event without firing it, advancing the wheel
// cursor past empty slots and reaping cancelled events along the way. It
// returns nil when nothing is pending.
func (e *Engine) peek() *Event {
	for {
		for e.curPos < len(e.curBuf) {
			ev := e.curBuf[e.curPos]
			if ev.dead {
				e.curBuf[e.curPos] = nil
				e.curPos++
				e.release(ev)
				continue
			}
			return ev
		}
		if !e.refill() {
			return nil
		}
	}
}

// fire executes ev, which must be the event peek just returned.
func (e *Engine) fire(ev *Event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	e.curBuf[e.curPos] = nil
	e.curPos++
	e.now = ev.at
	e.steps++
	e.live--
	fn, call := ev.fn, ev.call
	e.release(ev)
	if call != nil {
		call.Fire()
	} else {
		fn()
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue is empty or the clock passes until.
// Events scheduled exactly at until are executed. The clock is left at
// min(until, time of last event); if the queue drains early the clock still
// advances to until so subsequent Schedule calls are relative to it.
func (e *Engine) Run(until time.Duration) {
	for ev := e.peek(); ev != nil && ev.at <= until; ev = e.peek() {
		e.fire(ev)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty. Use with care: protocols
// with periodic timers never drain; prefer Run.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Pending returns the number of live queue entries. A callback that will
// count several logical events when it fires (see AddSteps) is one entry.
func (e *Engine) Pending() int { return e.live }
