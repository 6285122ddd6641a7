package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run(time.Second)
	fired := false
	e.Schedule(-5*time.Second, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (inclusive boundary)", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	e.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock should advance to until even after drain; got %v", e.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.ScheduleAt(5*time.Second, func() { at = e.Now() })
	e.RunAll()
	if at != 5*time.Second {
		t.Fatalf("fired at %v, want 5s", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now = %v, want 99ms", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(42)
		var fired []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(e.Rand().Int63n(int64(time.Second)))
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across identical seeds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPending(t *testing.T) {
	e := NewEngine(1)
	t1 := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stop, want 1", e.Pending())
	}
}

func TestTickerBasic(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := NewTicker(e, 0, time.Second, func() { count++ })
	e.Run(10 * time.Second)
	// Fires at 0,1,...,10 inclusive = 11 times.
	if count != 11 {
		t.Fatalf("ticks = %d, want 11", count)
	}
	tk.Stop()
	e.Run(20 * time.Second)
	if count != 11 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 0, time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run(time.Minute)
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestJitteredTickerPhase(t *testing.T) {
	e := NewEngine(7)
	var first time.Duration = -1
	NewJitteredTicker(e, time.Second, func() {
		if first < 0 {
			first = e.Now()
		}
	})
	e.Run(5 * time.Second)
	if first < 0 || first >= time.Second {
		t.Fatalf("first firing at %v, want in [0, 1s)", first)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never decreases.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(3)
		var fired []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// batchCall stands for k simultaneous arrivals, the way a netsim run does:
// one queue entry whose Fire counts the other k-1 itself.
type batchCall struct {
	e     *Engine
	k     int
	fired int
}

func (b *batchCall) Fire() {
	b.e.AddSteps(b.k - 1)
	b.fired++
}

// TestBatchCallbackCountsItsLength pins the accounting contract of a callback
// that stands for k events: scheduling it adds one to Pending and consumes
// one sequence number, firing it adds k to Steps, and the order against its
// same-instant neighbours is the one k separate events in its place would
// have had.
func TestBatchCallbackCountsItsLength(t *testing.T) {
	const k = 7
	e := NewEngine(1)
	var order []string
	e.Schedule(time.Millisecond, func() { order = append(order, "before") })
	b := &batchCall{e: e, k: k}
	e.ScheduleCall(time.Millisecond, b)
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d with a plain event and a batch of %d queued, want 2", got, k)
	}
	e.Schedule(time.Millisecond, func() { order = append(order, "after") })

	if !e.Step() || len(order) != 1 || order[0] != "before" {
		t.Fatalf("first step fired %v, want [before]", order)
	}
	before := e.Steps()
	if !e.Step() {
		t.Fatal("the batch did not fire")
	}
	if got := e.Steps() - before; got != k {
		t.Fatalf("firing a batch of %d advanced Steps by %d", k, got)
	}
	if b.fired != 1 {
		t.Fatalf("the batch fired %d times, want once", b.fired)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after the batch fired, want 1", got)
	}
	e.RunAll()
	if len(order) != 2 || order[1] != "after" {
		t.Fatalf("order %v, want [before after] around the batch", order)
	}
	if got := e.Steps(); got != k+2 {
		t.Fatalf("Steps = %d at the end, want %d", got, k+2)
	}
}
