package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestWheelMatchesReferenceOrder stress-tests the wheel's ordering contract:
// events fire in exact (at, seq) order, the total order the old binary heap
// provided. Every schedule records its own (at, schedule-index) key, so the
// expected sequence is simply the non-cancelled events sorted by that key —
// an oracle independent of the wheel's slot/cascade mechanics. The schedule
// mixes delays spanning every wheel level, same-instant bursts, nested
// schedules from inside callbacks, cancellations, and an idle Run boundary
// that leaves the cursor ahead of the clock before more scheduling.
func TestWheelMatchesReferenceOrder(t *testing.T) {
	delays := []time.Duration{
		0, 1, time.Microsecond, 60 * time.Microsecond, // in-tick and next-tick
		time.Millisecond, 20 * time.Millisecond, // level 0
		time.Second, 3 * time.Second, // level 1
		20 * time.Minute, // level 2
		48 * time.Hour,   // level 3
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)

		type key struct {
			at  time.Duration
			seq int
		}
		var (
			keys      []key // index = event id
			timers    []*Timer
			fired     []int
			cancelled = map[int]bool{}
		)
		var schedule func(depth int)
		schedule = func(depth int) {
			d := delays[rng.Intn(len(delays))]
			if rng.Intn(4) == 0 {
				d += time.Duration(rng.Intn(1000)) * time.Microsecond
			}
			id := len(keys)
			keys = append(keys, key{at: e.Now() + d, seq: id})
			timers = append(timers, e.Schedule(d, func() {
				fired = append(fired, id)
				if depth < 3 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			}))
		}
		for i := 0; i < 300; i++ {
			schedule(0)
			if rng.Intn(5) == 0 {
				k := rng.Intn(len(timers))
				if timers[k].Stop() {
					cancelled[k] = true
				}
			}
		}
		e.Run(5 * time.Second) // leaves the cursor parked at the next event
		for i := 0; i < 100; i++ {
			schedule(0)
			if rng.Intn(6) == 0 {
				k := rng.Intn(len(timers))
				if timers[k].Stop() {
					cancelled[k] = true
				}
			}
		}
		e.RunAll()

		var want []int
		for id := range keys {
			if !cancelled[id] {
				want = append(want, id)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := keys[want[i]], keys[want[j]]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.seq < b.seq
		})
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got id %d (at %v), want id %d (at %v)",
					seed, i, fired[i], keys[fired[i]].at, want[i], keys[want[i]].at)
			}
		}
		if _, ok := e.NextEventAt(); ok {
			t.Fatalf("seed %d: events still pending after RunAll", seed)
		}
	}
}

// TestWheelOverflowHorizon schedules events beyond the wheel's ~834-day
// horizon and verifies they still fire, in order, via the overflow list.
func TestWheelOverflowHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{
		3 * 365 * 24 * time.Hour,
		900 * 24 * time.Hour,
		time.Second,
		2 * 365 * 24 * time.Hour,
	} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunAll()
	want := []time.Duration{time.Second, 2 * 365 * 24 * time.Hour, 900 * 24 * time.Hour, 3 * 365 * 24 * time.Hour}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestTimerHandleSurvivesReuse pins down the generation stamping: a Timer
// whose event has fired and been recycled into a new event must not be able
// to stop the new event.
func TestTimerHandleSurvivesReuse(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(time.Millisecond, func() {})
	e.Run(time.Millisecond) // fires; the Event struct returns to the pool
	if stale.Stop() {
		t.Fatal("fired timer still stops")
	}
	fired := false
	fresh := e.Schedule(time.Millisecond, func() { fired = true })
	if stale.Stop() {
		t.Fatal("stale handle stopped a recycled event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if fresh.Stop() {
		t.Fatal("fired timer still stops")
	}
}

// TestScheduleCallZeroAlloc verifies the Callback scheduling path allocates
// nothing once the event pool is warm — the property the netsim delivery
// path and every ticker rearm rely on.
func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	c := &countingCall{}
	e.ScheduleCall(time.Millisecond, c) // warm the pool
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(time.Millisecond, c)
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("ScheduleCall+fire allocates %.1f per op, want 0", allocs)
	}
}

type countingCall struct{ n int }

func (c *countingCall) Fire() { c.n++ }

// TestScheduleCallTimer covers the by-value handle of a Callback event: the
// arm/cancel cycle of a request timeout allocates nothing, a stopped event
// never fires or counts as a step, a handle kept past its event's firing
// cannot touch the recycled event, and the zero Timer is inert.
func TestScheduleCallTimer(t *testing.T) {
	e := NewEngine(1)
	c := &countingCall{}
	e.ScheduleCall(time.Millisecond, c) // warm the pool
	e.RunAll()
	c.n = 0
	allocs := testing.AllocsPerRun(1000, func() {
		tm := e.ScheduleCallTimer(time.Second, c)
		if !tm.Stop() || tm.Stop() {
			t.Fatal("arm/stop cycle misreports")
		}
		e.Run(e.Now() + time.Millisecond) // reaps nothing yet; keeps the wheel moving
	})
	if allocs > 0 {
		t.Fatalf("ScheduleCallTimer+Stop allocates %.1f per op, want 0", allocs)
	}
	steps := e.Steps()
	e.RunAll()
	if _, ok := e.NextEventAt(); c.n != 0 || e.Steps() != steps || ok {
		t.Fatalf("cancelled events: fired %d, steps %d -> %d, pending %v", c.n, steps, e.Steps(), ok)
	}

	stale := e.ScheduleCallTimer(time.Millisecond, c)
	e.RunAll()
	if c.n != 1 {
		t.Fatalf("fired %d times, want once", c.n)
	}
	e.ScheduleCallTimer(time.Millisecond, c) // recycles the same Event
	if stale.Stop() {
		t.Fatal("stale handle stopped a recycled event")
	}
	e.RunAll()
	if c.n != 2 {
		t.Fatalf("recycled event fired %d times in all, want 2", c.n)
	}

	var zero Timer
	if zero.Stop() {
		t.Fatal("zero Timer is pending")
	}
}
