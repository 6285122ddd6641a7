package harness

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestDeterministicSpacing(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []time.Duration
	deterministicArrivals(eng, 100*time.Millisecond, 1*time.Second, func(i int) {
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

func TestPoissonRateAndVariability(t *testing.T) {
	eng := sim.NewEngine(7)
	var gaps []time.Duration
	last := time.Duration(-1)
	poissonArrivals(eng, 100, 60*time.Second, func(i int) {
		if last >= 0 {
			gaps = append(gaps, eng.Now()-last)
		}
		last = eng.Now()
	})
	eng.Run(70 * time.Second)
	n := float64(len(gaps))
	if n < 5000 || n > 7000 {
		t.Fatalf("got %v arrivals in 60s at 100/s", n)
	}
	var sum, sq float64
	for _, g := range gaps {
		s := g.Seconds()
		sum += s
		sq += s * s
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	// Exponential: std == mean (CV = 1). Allow 15%.
	if math.Abs(mean-0.01) > 0.0015 {
		t.Errorf("mean gap %.4fs, want ~0.01", mean)
	}
	cv := std / mean
	if cv < 0.85 || cv > 1.15 {
		t.Errorf("coefficient of variation %.2f, want ~1 (exponential)", cv)
	}
}

func TestStopHalts(t *testing.T) {
	eng := sim.NewEngine(1)
	count := 0
	a := deterministicArrivals(eng, 10*time.Millisecond, time.Minute, func(i int) { count++ })
	eng.Run(100 * time.Millisecond)
	a.stop()
	at := count
	eng.Run(2 * time.Second)
	if count != at {
		t.Fatalf("arrivals continued after Stop: %d -> %d", at, count)
	}
	if a.count != count {
		t.Fatalf("count = %d, want %d", a.count, count)
	}
}

func TestDurationBound(t *testing.T) {
	eng := sim.NewEngine(1)
	var lastAt time.Duration
	deterministicArrivals(eng, 100*time.Millisecond, time.Second, func(i int) { lastAt = eng.Now() })
	eng.Run(time.Minute)
	if lastAt > time.Second {
		t.Fatalf("arrival at %v past the duration bound", lastAt)
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.NewEngine(99)
		var times []time.Duration
		poissonArrivals(eng, 50, 10*time.Second, func(i int) { times = append(times, eng.Now()) })
		eng.Run(12 * time.Second)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different counts across identical seeds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("divergent arrival times across identical seeds")
		}
	}
}
