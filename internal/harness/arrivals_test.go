package harness

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestDeterministicSpacing(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []time.Duration
	paced(eng, 100*time.Millisecond, 1*time.Second, func(i int) {
		times = append(times, eng.Now())
	})
	eng.Run(2 * time.Second)
	if len(times) != 10 {
		t.Fatalf("fired %d times, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 100*time.Millisecond {
			t.Fatalf("irregular spacing: %v", times)
		}
	}
}

func TestDurationBound(t *testing.T) {
	eng := sim.NewEngine(1)
	var lastAt time.Duration
	paced(eng, 100*time.Millisecond, time.Second, func(i int) { lastAt = eng.Now() })
	eng.Run(time.Minute)
	if lastAt > time.Second {
		t.Fatalf("arrival at %v past the duration bound", lastAt)
	}
}
