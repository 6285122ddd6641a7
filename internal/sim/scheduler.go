package sim

import "time"

// Scheduler is the seam between protocol/harness code and whatever drives
// virtual time. *Engine satisfies it directly; the parsim coordinator
// satisfies it too, executing scheduled callbacks single-threaded between
// lookahead windows so chaos timelines and harness deadlines work unchanged
// whether the run is serial or partitioned into logical processes.
type Scheduler interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn func()) *Timer
	ScheduleAt(at time.Duration, fn func()) *Timer
}

var _ Scheduler = (*Engine)(nil)

// NextEventAt returns the time of the next live event, or ok=false when the
// queue is empty. It advances the wheel cursor past cancelled events (like
// peek) but fires nothing and never moves the clock.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// RunBefore executes every event with time strictly less than until, leaving
// the clock at the time of the last fired event (it does NOT advance the
// clock to until). The wheel cursor may end up ahead of the clock; insert
// handles that by splicing same-tick schedules into the firing tail. This is
// the parsim window primitive: a logical process drains [now, until) and the
// coordinator decides what the clock does at the boundary via AdvanceTo.
func (e *Engine) RunBefore(until time.Duration) {
	for ev := e.peek(); ev != nil && ev.at < until; ev = e.peek() {
		e.fire(ev)
	}
}

// AdvanceTo moves the clock forward to t if it is behind. It must only be
// called when no live event earlier than t remains (e.g. at a parsim window
// boundary after RunBefore(t)); firing order would otherwise go backwards
// and fire would panic.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}
