package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestSweepDeterminism is the regression gate for the parallel sweep
// engine: a Figure 11 sweep must render byte-identically at any worker
// count, and two runs with the same seed must be byte-identical. This is
// the property that lets EXPERIMENTS.md numbers be regenerated on any
// machine with any -workers value.
func TestSweepDeterminism(t *testing.T) {
	o := testOptions()
	o.Sizes = []int{20, 40}

	o.Sweep = Sweep{Workers: 1}
	serial := figure11(o).Render()
	o.Sweep = Sweep{Workers: 8}
	parallel := figure11(o).Render()
	if serial != parallel {
		t.Fatalf("workers=1 and workers=8 render differently:\n%s\nvs\n%s", serial, parallel)
	}
	if again := figure11(o).Render(); again != parallel {
		t.Fatalf("same seed not byte-identical across runs:\n%s\nvs\n%s", again, parallel)
	}

	// The failure sweeps share the machinery; spot-check one.
	o.Sweep = Sweep{Workers: 1}
	d1 := figure12(o).Render()
	o.Sweep = Sweep{Workers: 8}
	d8 := figure12(o).Render()
	if d1 != d8 {
		t.Fatalf("Figure 12 differs across worker counts:\n%s\nvs\n%s", d1, d8)
	}
}

// TestDeriveSeed pins the seed-derivation properties the determinism
// guarantee rests on: stability, key sensitivity, and base sensitivity.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, "fig11/Hierarchical/n=100") != DeriveSeed(42, "fig11/Hierarchical/n=100") {
		t.Fatal("DeriveSeed not stable")
	}
	if DeriveSeed(42, "a") == DeriveSeed(42, "b") {
		t.Fatal("distinct keys should derive distinct seeds")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Fatal("distinct bases should derive distinct seeds")
	}
}

// TestPoolOrderingAndReports checks that Wait returns reports in
// submission order with identity fields filled in, regardless of the
// order in which workers finish.
func TestPoolOrderingAndReports(t *testing.T) {
	var progress strings.Builder
	var mu sync.Mutex
	p := NewPool(Sweep{Workers: 4, Progress: &lockedWriter{w: &progress, mu: &mu}}, 7)
	keys := []string{"run/a", "run/b", "run/c", "run/d", "run/e"}
	var executed atomic.Int32
	for i, key := range keys {
		delay := time.Duration(len(keys)-i) * time.Millisecond // later submissions finish first
		p.Go(key, func(seed int64) metrics.RunReport {
			time.Sleep(delay)
			executed.Add(1)
			return metrics.RunReport{Events: uint64(i + 1)}
		})
	}
	reports := p.Wait()
	if int(executed.Load()) != len(keys) {
		t.Fatalf("executed %d of %d runs", executed.Load(), len(keys))
	}
	if len(reports) != len(keys) {
		t.Fatalf("got %d reports, want %d", len(reports), len(keys))
	}
	for i, r := range reports {
		if r.Key != keys[i] {
			t.Errorf("report %d has key %q, want %q (submission order)", i, r.Key, keys[i])
		}
		if r.Seed != DeriveSeed(7, keys[i]) {
			t.Errorf("report %d seed = %d, want DeriveSeed(7, %q)", i, r.Seed, keys[i])
		}
		if r.Events != uint64(i+1) {
			t.Errorf("report %d lost its run counters: events=%d", i, r.Events)
		}
	}
	out := progress.String()
	for _, key := range keys {
		if !strings.Contains(out, key) {
			t.Errorf("progress output missing run %q:\n%s", key, out)
		}
	}
	if !strings.Contains(out, "sweep: 5 runs") {
		t.Errorf("progress output missing sweep summary:\n%s", out)
	}
}

// lockedWriter makes a strings.Builder safe for the pool's (already
// serialized) progress writes while the test reads it afterwards.
type lockedWriter struct {
	w  *strings.Builder
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestPoolWorkerClamp: more workers than tasks must not deadlock or skip
// work, and zero workers means GOMAXPROCS.
func TestPoolWorkerClamp(t *testing.T) {
	p := NewPool(Sweep{Workers: 64}, 1)
	ran := false
	p.Go("only", func(seed int64) metrics.RunReport {
		ran = true
		return metrics.RunReport{}
	})
	if reports := p.Wait(); len(reports) != 1 || !ran {
		t.Fatal("single task with many workers did not run exactly once")
	}
	if got := (Sweep{}).workerCount(3); got < 1 {
		t.Fatalf("default worker count = %d", got)
	}
	if got := (Sweep{Workers: -5}).workerCount(3); got < 1 {
		t.Fatalf("negative workers not clamped: %d", got)
	}
}

// TestObserveCounters checks a real run produces plausible observability
// counters: virtual time advanced, events executed, packets delivered, and
// a converged directory as large as the cluster.
func TestObserveCounters(t *testing.T) {
	o := testOptions()
	o.Sizes = []int{20}
	p := NewPool(Sweep{Workers: 2}, o.Seed)
	var rep metrics.RunReport
	p.Go("observe/n=20", func(seed int64) metrics.RunReport {
		c := NewCluster(Hierarchical, o.topologyFor(20), seed)
		c.StartAll()
		c.Run(30 * time.Second)
		return c.Observe()
	})
	rep = p.Wait()[0]
	if rep.Virtual != 30*time.Second {
		t.Errorf("virtual time = %v, want 30s", rep.Virtual)
	}
	if rep.Events == 0 || rep.PktsDelivered == 0 || rep.BytesDelivered == 0 {
		t.Errorf("counters empty: %+v", rep)
	}
	if rep.PeakDirSize != 20 {
		t.Errorf("peak directory size = %d, want 20 (converged view)", rep.PeakDirSize)
	}
	if rep.Wall <= 0 {
		t.Errorf("wall time not recorded: %v", rep.Wall)
	}
}
