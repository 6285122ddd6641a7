package harness

// This file is the parallel sweep engine: every figure in this package is a
// set of completely independent simulation runs (one per cluster size,
// ablation point, or failure trial), so regenerating a figure fans the runs
// out over a worker pool instead of looping in one goroutine.
//
// Determinism is preserved by construction:
//
//   - Each run's RNG seed is derived from the sweep's base seed and the
//     run's stable key (DeriveSeed), never from worker identity or
//     submission timing, so a run computes the same result no matter which
//     worker executes it or in what order.
//   - Each run writes its result into a slot reserved at submission time,
//     and the figure's series are assembled serially after Wait, so the
//     rendered table is byte-identical for any worker count.
//
// TestSweepDeterminism pins both properties.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Sweep configures how a figure's independent runs are executed.
// The zero value (all workers, no progress output) is ready to use.
type Sweep struct {
	// Workers is the fan-out; 0 or negative means runtime.GOMAXPROCS(0).
	// The worker count never affects results, only wall time.
	Workers int
	// Progress, when non-nil, receives one metrics.RunReport line as each
	// run finishes plus a sweep summary at the end. Completion order is
	// scheduling-dependent, so progress output belongs on stderr, never in
	// the figure itself.
	Progress io.Writer
	// Collector, when non-nil, receives every run's report in submission
	// order after the pool drains (tampbench -json aggregates these into
	// BENCH_<fig>.json files).
	Collector *metrics.ReportLog
}

func (s Sweep) workerCount(tasks int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DeriveSeed maps a sweep's base seed and a run's stable key to the run's
// RNG seed: base ⊕ FNV-1a64(key). Distinct runs of one sweep get distinct,
// reproducible seeds regardless of execution order, which is what makes
// parallel sweep output byte-identical to serial output.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// RunFunc executes one simulation run with its derived seed and returns the
// run's observability counters (Key, Seed, and Wall are filled in by the
// pool).
type RunFunc func(seed int64) metrics.RunReport

type poolTask struct {
	key string
	fn  RunFunc
}

// Pool collects independent runs and executes them across a worker pool.
// Submit every run with Go, then call Wait exactly once. A Pool is not
// reusable after Wait.
type Pool struct {
	sw    Sweep
	base  int64
	tasks []poolTask
	mu    sync.Mutex // serializes Progress writes
}

// NewPool returns an empty pool whose runs derive their seeds from base.
func NewPool(sw Sweep, base int64) *Pool {
	return &Pool{sw: sw, base: base}
}

// Go queues one run. Keys must be unique within the pool and stable across
// processes: they name the run in progress output and determine its seed.
func (p *Pool) Go(key string, fn RunFunc) {
	p.tasks = append(p.tasks, poolTask{key: key, fn: fn})
}

// Wait executes every queued run and returns their reports in submission
// order. Result data produced by the run closures is visible to the caller
// when Wait returns.
func (p *Pool) Wait() []metrics.RunReport {
	reports := make([]metrics.RunReport, len(p.tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := p.sw.workerCount(len(p.tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := p.tasks[i]
				seed := DeriveSeed(p.base, t.key)
				start := time.Now()
				rep := t.fn(seed)
				rep.Key = t.key
				rep.Seed = seed
				rep.Wall = time.Since(start)
				reports[i] = rep
				if p.sw.Progress != nil {
					p.mu.Lock()
					fmt.Fprintln(p.sw.Progress, rep.String())
					p.mu.Unlock()
				}
			}
		}()
	}
	for i := range p.tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if p.sw.Progress != nil && len(p.tasks) > 1 {
		fmt.Fprintln(p.sw.Progress, metrics.Summarize(reports).String())
	}
	if p.sw.Collector != nil {
		for _, r := range reports {
			p.sw.Collector.Append(r)
		}
	}
	p.tasks = nil
	return reports
}

// sweep is the one shape every swept figure has: one cell per key on sw's
// worker pool, submitted in key order under name(key) — so seeds, -json
// report order and -v lines are a function of the keys alone — each result
// in the slot of its key.
func sweep[K, R any](sw Sweep, seed int64, keys []K, name func(K) string, cell func(k K, seed int64) (R, metrics.RunReport)) []R {
	out := make([]R, len(keys))
	p := NewPool(sw, seed)
	for i, k := range keys {
		p.Go(name(k), func(seed int64) metrics.RunReport {
			var rep metrics.RunReport
			out[i], rep = cell(k, seed)
			return rep
		})
	}
	p.Wait()
	return out
}

// curves sweeps xs — the run key is format applied to x — and plots what the
// cells return: ys[j] is the point of series[j] at x, NaN for no point (a
// failure nobody detected in time).
func curves[X int | float64](fig *metrics.Figure, series []string, sw Sweep, seed int64, xs []X, format string,
	cell func(x X, seed int64) (ys []float64, rep metrics.RunReport)) *metrics.Figure {
	name := func(x X) string { return fmt.Sprintf(format, x) }
	plotCurves(fig, series, xs, sweep(sw, seed, xs, name, cell))
	return fig
}

func plotCurves[X int | float64](fig *metrics.Figure, series []string, xs []X, ys [][]float64) {
	for j, name := range series {
		s := fig.AddSeries(name)
		for i, x := range xs {
			if y := ys[i][j]; !math.IsNaN(y) {
				s.Add(float64(x), y)
			}
		}
	}
}

// schemeCurves is curves once per compared scheme, all cells in one pool,
// scheme-major: the run key is format applied to (scheme, x), and each
// scheme's series are its name plus suffixes[j].
func schemeCurves[X int | float64](fig *metrics.Figure, suffixes []string, sw Sweep, seed int64, xs []X, format string,
	cell func(scheme Scheme, x X, seed int64) (ys []float64, rep metrics.RunReport)) *metrics.Figure {
	type key struct {
		scheme Scheme
		x      X
	}
	var keys []key
	for _, scheme := range comparedSchemes {
		for _, x := range xs {
			keys = append(keys, key{scheme, x})
		}
	}
	ys := sweep(sw, seed, keys,
		func(k key) string { return fmt.Sprintf(format, k.scheme, k.x) },
		func(k key, seed int64) ([]float64, metrics.RunReport) { return cell(k.scheme, k.x, seed) })
	for si, scheme := range comparedSchemes {
		series := make([]string, len(suffixes))
		for j, suffix := range suffixes {
			series[j] = scheme.String() + suffix
		}
		plotCurves(fig, series, xs, ys[si*len(xs):(si+1)*len(xs)])
	}
	return fig
}

// Observe reports the cluster's run counters at the end of a run; Pool.Wait
// fills in the identity and wall-time fields. In a partitioned run virtual
// time comes from any LP engine (all in lockstep at run end) and events sum
// across LPs.
func (c *Cluster) Observe() metrics.RunReport {
	now, events := c.Eng.Now(), c.Eng.Steps()
	if c.Coord != nil {
		now, events = c.Engs[0].Now(), c.Coord.Steps()
	}
	st := c.Net.TotalStats()
	r := metrics.RunReport{
		Virtual:        now,
		Events:         events,
		PktsDelivered:  st.PktsRecv,
		PktsDropped:    st.Dropped,
		BytesDelivered: st.BytesRecv,
		PktsRejected:   st.Rejected,
		FaultsInjected: st.FaultsInjected(),
	}
	for _, n := range c.Nodes {
		if l := n.Directory().Len(); l > r.PeakDirSize {
			r.PeakDirSize = l
		}
	}
	return r
}
