package sim

import "time"

// Ticker repeatedly invokes a callback at a fixed virtual-time period,
// optionally with a random phase so that simulated nodes do not fire in
// lockstep. Stop is idempotent.
//
// The ticker schedules itself through the engine's Callback path and keeps
// the by-value handle on its pending event, so each rearm recycles a pooled
// event instead of allocating a fresh timer and closure — the steady-state
// cost of a periodic timer is O(1) with zero allocations.
type Ticker struct {
	e       *Engine
	period  time.Duration
	fn      func()
	pending Timer
	stop    bool
}

// tickerFire adapts the ticker to the engine's Callback interface without
// widening the Ticker API.
type tickerFire Ticker

func (t *tickerFire) Fire() { (*Ticker)(t).tick() }

// NewTicker schedules fn every period, with the first firing after an
// initial delay. A common pattern is a random initial phase in [0, period).
func NewTicker(e *Engine, initial, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{e: e, period: period, fn: fn}
	t.arm(initial)
	return t
}

// NewJitteredTicker is NewTicker with the initial delay drawn uniformly from
// [0, period) using the engine RNG.
func NewJitteredTicker(e *Engine, period time.Duration, fn func()) *Ticker {
	initial := time.Duration(e.Rand().Int63n(int64(period)))
	return NewTicker(e, initial, period, fn)
}

func (t *Ticker) arm(delay time.Duration) {
	t.pending = t.e.ScheduleCallTimer(delay, (*tickerFire)(t))
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if t.stop { // fn may have stopped us
		return
	}
	t.arm(t.period)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stop = true
	t.pending.Stop()
}
