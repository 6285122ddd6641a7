package perf

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// chaosPassSeconds is what one pass of the matrix (154 audited cells)
// costs on the reference box; --seconds buys round(seconds/it) passes.
const chaosPassSeconds = 6.0

// Probe cells: the matrix owns its clusters, so the view-change metrics of
// this workload come from one own-cluster kill/restart cell per scheme that
// harness.NewCluster can build, run inside the timed region.
var probeSchemes = []harness.Scheme{
	harness.AllToAll, harness.Gossip, harness.Hierarchical,
	harness.Rapid, harness.HierarchicalAdaptive, harness.RapidDC,
}

const (
	probeWarmup    = 40 * time.Second
	probeKillEvery = 60 * time.Second
	probeDownFor   = 45 * time.Second // above every scheme's purge time at 24 nodes
	probeKills     = 10
)

// toyScenarios is the matrix rows the smoke test keeps.
var toyScenarios = []string{"steady", "kill-restart"}

// chaosPass runs the whole matrix once, single-threaded, and returns the
// cells' reports in submission order.
func chaosPass(seed int64, toy bool) []metrics.RunReport {
	log := metrics.NewReportLog()
	o := harness.DefaultChaosOptions()
	o.Seed = seed
	if toy {
		o.Scenarios = toyScenarios
	}
	o.Sweep = harness.Sweep{Workers: 1, Collector: log}
	harness.ChaosMatrix(o)
	return log.Reports()
}

// cellDigest hashes everything deterministic in one cell's report.
func cellDigest(r metrics.RunReport) uint64 {
	r.Wall = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r)
	return h.Sum64()
}

// probeCell is one own-cluster kill/restart run of a scheme.
type probeCell struct {
	view              viewStats
	expected, missing uint64
	nodeKBps          float64
	events            uint64
}

func runProbeCell(scheme harness.Scheme, seed int64) probeCell {
	c := harness.NewCluster(scheme, topology.Clustered(3, 8), seed)
	w := &world{c: c, sched: c.Eng}
	c.StartAll()
	w.run(probeWarmup)
	rng := rand.New(rand.NewSource(seed))
	var faults []fault
	for k := 0; k < probeKills; k++ {
		faults = append(faults, fault{
			at:     time.Duration(k)*probeKillEvery + time.Duration(rng.Int63n(int64(time.Second))),
			victim: rng.Intn(len(c.Nodes)),
		})
	}
	probe := w.inject(faults, probeDownFor)
	c.Net.ResetStats() // the kill phase's traffic only
	virt := probeKills * probeKillEvery
	w.run(virt)
	cell := probeCell{view: probe.stats(), events: w.events()}
	cell.expected, cell.missing = probe.removals()
	cell.nodeKBps = float64(c.Net.TotalStats().BytesRecv) / float64(len(c.Nodes)) / virt.Seconds() / 1000
	return cell
}

// schemeOf recovers the scheme column from a cell key "chaos/<scenario>/<scheme>".
func schemeOf(key string) string { return key[strings.LastIndexByte(key, '/')+1:] }

// cellSeconds maps the ledger's per-scheme metric names to matrix columns.
var cellSeconds = []struct{ metric, scheme string }{
	{"alltoall.cells_s", harness.AllToAll.String()},
	{"gossip.cells_s", harness.Gossip.String()},
	{"core.cells_s", harness.Hierarchical.String()},
	{"core.adaptive_cells_s", harness.HierarchicalAdaptive.String()},
	{"proxy.cells_s", harness.HierarchicalProxy.String()},
	{"rapid.cells_s", harness.Rapid.String()},
	{"rapid.dc_cells_s", harness.RapidDC.String()},
}

func runChaosMatrix(p Params) Result {
	passes := int(math.Round(p.Seconds / chaosPassSeconds))
	if passes < 1 {
		passes = 1
	}
	var res Result

	// Set-up: one pass at the workload seed warms every lazily built table
	// and grows the heap to its working size.
	speedBefore := p.speed.sample()
	t0 := time.Now()
	first := chaosPass(p.Seed, p.Toy)
	runtime.GC()
	setupS := time.Since(t0).Seconds() * speedIndex([]float64{speedBefore, p.speed.sample()})

	// Timed region: the first pass repeats the set-up pass's seed, so its
	// cells must reproduce it bit for bit; the others move on to fresh seeds.
	var cells [][]metrics.RunReport
	var probes []probeCell
	cost := measure(p.speed, passes+1, func(chunk int) {
		if chunk < passes {
			cells = append(cells, chaosPass(p.Seed+int64(chunk), p.Toy))
			return
		}
		for _, s := range probeSchemes {
			probes = append(probes, runProbeCell(s, p.Seed))
		}
	})

	var repeated, differing uint64
	for i, r := range cells[0] {
		repeated++
		if i >= len(first) || cellDigest(first[i]) != cellDigest(r) {
			differing++
		}
	}
	h := fnv.New64a()
	var events, checks, violations uint64
	perScheme := map[string]time.Duration{}
	for _, pass := range cells {
		for _, r := range pass {
			fmt.Fprintf(h, "%x ", cellDigest(r))
			events += r.Events
			perScheme[schemeOf(r.Key)] += r.Wall
			for _, inv := range r.Invariants {
				checks += inv.Checks
				violations += inv.Violations
			}
		}
	}
	var view viewStats
	var expected, missing uint64
	var kbps float64
	for _, c := range probes {
		fmt.Fprintf(h, "%v ", c.view.allDelays)
		events += c.events
		expected += c.expected
		missing += c.missing
		view.kills += c.view.kills
		view.samples += c.view.samples
		// Schemes differ several-fold in detection time, so a pooled median
		// would sit on the boundary between two of them and jump with the
		// seed; the mean of per-scheme quantiles moves smoothly.
		n := float64(len(probes))
		view.detect += c.view.detect / n
		view.converge += c.view.converge / n
		view.viewP95 += c.view.viewP95 / n
		kbps += c.nodeKBps / n
	}

	res.Attempted = repeated + expected
	res.Failed = differing + missing
	res.Correct = res.Failed == 0
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
	res.Notes = append(res.Notes,
		fmt.Sprintf("timed region: %d passes of %d cells, %d probe cells, %d events", passes, len(first), len(probes), events),
		cost.note(),
		fmt.Sprintf("operations: %d cells repeated from set-up (%d differ), %d expected removals (%d never seen)", repeated, differing, expected, missing),
		fmt.Sprintf("samples: %d kills, %d (kill, observer) removals; sim_* are means over %d probe schemes of per-scheme quantiles", view.kills, view.samples, len(probes)),
		fmt.Sprintf("matrix verdicts (in sim_digest, not operations): %d invariant checks, %d violations", checks, violations),
	)
	if !p.Trace {
		res.Metrics = endToEnd(setupS, cost, kbps, view)
		return res
	}

	l := newLedger()
	l.set("sim.events", float64(events))
	l.set("invariant.checks", float64(checks))
	l.set("invariant.violations", float64(violations))
	// The pool times every cell from outside; those walls are this
	// workload's spans, one aggregate per scheme column.
	var spans []SpanSummary
	for _, cs := range cellSeconds {
		l.set(cs.metric, perScheme[cs.scheme].Seconds())
		spans = append(spans, SpanSummary{
			Name: "chaos.cell/" + cs.scheme, Parent: "chaos.pass", Count: uint64(passes * len(first) / len(cellSeconds)),
			TotalNS: int64(perScheme[cs.scheme]), SelfNS: int64(perScheme[cs.scheme]),
		})
	}
	l.hostCounts(cost, events)
	l.micros(p.Toy)
	res.Metrics = l.metrics()
	if err := writeTrace(p, "chaos-matrix", spans, nil); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "FAILED CHECK: "+err.Error())
	}
	return res
}
