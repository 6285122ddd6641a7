package harness

// This file is the one place that knows what a figure is: one row per -fig
// name with its help line, whether "all" includes it, whether it records
// itself in BENCH_<name>.json, the axes and parameters it runs at by
// default, and the one function that regenerates it. cmd/tampbench, the root
// BenchmarkFigure and the README check read the rows through Figures; adding
// a figure is one new row (plus its experiment, in a file of its own).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Env is what a command line may vary about a figure run; everything else
// is the row's own default.
type Env struct {
	// Options carries the seed, the worker pool, and the Figure 11-13 axes
	// (sizes, nodes per group, loss). Rows that sweep something else read
	// Seed, Sweep and, where loss is their subject, LossProb.
	Options
	// LPs is the parsim worker count inside the rows that run partitioned.
	LPs int
	// Stderr receives wall-clock lines, which may not go to stdout: stdout
	// is byte-identical on every machine. Nil discards them.
	Stderr io.Writer
}

// Output is one regenerated figure.
type Output struct {
	// Table is the rendered text, deterministic for a given Env.
	Table string
	// Plot is the figure behind Table when it is a set of curves (for
	// charts and SVGs); nil for the matrices and the scale runs.
	Plot *metrics.Figure
	// Runs holds every simulation run's report, in submission order.
	Runs []metrics.RunReport
	// Results is the structured form of a matrix, nil otherwise.
	Results any
}

// FigureSpec is one row of the figure table.
type FigureSpec struct {
	// Name is the -fig spelling, the BENCH_<Name>.json stem and the run-key
	// prefix.
	Name string
	// Usage is the row's line in the -fig help.
	Usage string
	// All: "-fig all" regenerates it. The rows left out take minutes or
	// repeat another row's scenarios.
	All bool
	// Bench: the figure is a behavioural contract committed as
	// BENCH_<Name>.json, so regenerating it always rewrites that file, and
	// .github/bench-contract.sh holds it to the committed bytes but wall time.
	Bench bool

	run func(Env) (Output, error)
}

// Run regenerates the figure. An error beside a non-empty Table means the
// figure is whole but a gate on it failed.
func (f FigureSpec) Run(e Env) (Output, error) {
	if e.Stderr == nil {
		e.Stderr = io.Discard
	}
	log := metrics.NewReportLog()
	e.Sweep.Collector = log
	out, err := f.run(e)
	if out.Runs == nil {
		out.Runs = log.Reports()
	}
	return out, err
}

// Figures returns the table, in "-fig all" order; callers must not modify it.
func Figures() []FigureSpec { return figures }

// FigureNames lists every -fig name, in table order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.Name
	}
	return names
}

// analyticSizes is the Section 4 tables' cluster-size axis.
var analyticSizes = []int{20, 100, 500, 1000, 4000}

var figures = []FigureSpec{
	{Name: "2", All: true, Usage: "Fig. 2: all-to-all CPU, packet and bandwidth load on one node, N=250..4000 (receive cost wall-measured)",
		run: func(Env) (Output, error) {
			per := MeasureReceiveCost(5000)
			fig := figure2(per, []int{250, 500, 1000, 2000, 4000})
			return Output{Table: fmt.Sprintf("(measured per-heartbeat receive cost: %v)\n", per) + fig.Render(), Plot: fig}, nil
		}},
	{Name: "11", All: true, Usage: "Fig. 11: aggregate bandwidth vs cluster size, three schemes (-sizes, -pergroup, -loss)",
		run: plot(func(e Env) *metrics.Figure { return figure11(e.Options) })},
	{Name: "12", All: true, Usage: "Fig. 12: failure detection time vs cluster size (-sizes, -pergroup, -loss)",
		run: plot(func(e Env) *metrics.Figure { return figure12(e.Options) })},
	{Name: "13", All: true, Usage: "Fig. 13: view convergence time vs cluster size (-sizes, -pergroup, -loss)",
		run: plot(func(e Env) *metrics.Figure { return figure13(e.Options) })},
	{Name: "14", All: true, Usage: "Fig. 14: two-DC search service across a doc-service failure at 20 s and recovery at 40 s",
		run: plot(func(e Env) *metrics.Figure { return figure14(e.Seed) })},
	{Name: "4x", All: true, Usage: "Section 4 closed forms at fixed 1 Hz: detection time and bandwidth, N=20..4000",
		run: plot(func(Env) *metrics.Figure { return section4(analyticSizes) })},
	{Name: "4b", All: true, Usage: "Section 4 closed forms at a fixed 1 MB/s budget: detection time and BDP, N=20..4000",
		run: plot(func(Env) *metrics.Figure { return section4FixedBandwidth(analyticSizes) })},
	{Name: "abl-piggyback", All: true, Usage: "ablation: update piggyback depth 0..8 vs full-sync fallbacks under loss (-loss, default 5%)",
		run: plot(func(e Env) *metrics.Figure {
			return ablationPiggyback(e.Sweep, []int{0, 1, 3, 6, 8}, e.lossOr(0.05), e.Seed)
		})},
	{Name: "abl-group", All: true, Usage: "ablation: group size 5..40 at N=40, bandwidth vs convergence",
		run: plot(func(e Env) *metrics.Figure { return ablationGroupSize(e.Sweep, 40, []int{5, 10, 20, 40}, e.Seed) })},
	{Name: "abl-maxloss", All: true, Usage: "ablation: MaxLoss 2..8 under loss, detection time vs false leaves (-loss, default 5%)",
		run: plot(func(e Env) *metrics.Figure {
			return ablationMaxLoss(e.Sweep, []int{2, 3, 5, 8}, e.lossOr(0.05), e.Seed)
		})},
	{Name: "abl-fanout", All: true, Usage: "ablation: gossip fanout 1..5 at N=40, bandwidth vs convergence",
		run: plot(func(e Env) *metrics.Figure { return ablationGossipFanout(e.Sweep, 40, []int{1, 2, 3, 5}, e.Seed) })},
	{Name: "accuracy", All: true, Usage: "view completeness and accuracy under kill/restart churn at 0-10% loss, three schemes",
		run: plot(func(e Env) *metrics.Figure {
			o := DefaultAccuracyOptions()
			o.Seed, o.Sweep = e.Seed, e.Sweep
			return accuracy(o)
		})},
	{Name: "breakdown", All: true, Usage: "hierarchical steady-state bandwidth by packet type (-sizes, -pergroup)",
		run: plot(func(e Env) *metrics.Figure { return bandwidthBreakdown(e.Options) })},
	{Name: "detect-dist", All: true, Usage: "detection-time percentiles over 12 failure trials, hierarchical N=60 (-pergroup, -loss)",
		run: plot(func(e Env) *metrics.Figure { return detectionDistribution(Hierarchical, e.Options, 60, 12) })},
	{Name: "chaos", All: true, Bench: true, Usage: "scenario x scheme invariant verdicts under the auditor, adversarial scenarios included",
		run: func(e Env) (Output, error) {
			o := DefaultChaosOptions()
			o.Seed, o.Sweep = e.Seed, e.Sweep
			results := ChaosMatrix(o)
			return Output{Table: RenderChaosMatrix(results), Results: results}, nil
		}},
	{Name: "traffic", All: true, Bench: true, Usage: "scenario x scheme user-level outcomes: misroutes, migrations, latency tails (docs/TRAFFIC.md)",
		run: trafficFigure(TrafficMatrix, trafficMatrixTable)},
	{Name: "traffic-hedge", Bench: true, Usage: "request-hedging ablation on the slow-replica scenarios, hedged vs un-hedged",
		run: trafficFigure(TrafficHedgeMatrix, trafficHedgeTable)},
	{Name: "scale", Bench: true, Usage: "N=1000 hierarchical churn run under the auditor, partitioned (-lps)",
		run: scaleFigure(DefaultScaleOptions)},
	{Name: "scale4k", Bench: true, Usage: "N=4000 churn run, the paper's Fig. 2 ceiling (-lps; tens of minutes)",
		run: scaleFigure(Scale4kOptions)},
	{Name: "parsim", Bench: true, Usage: "parsim worker scaling: the N=1000 run at 1, 2, 4 (and -lps) workers, byte-identity checked",
		run: parsimFigure},
}

// lossOr is the -loss flag where it was given, and otherwise the default of
// a row whose subject is loss.
func (e Env) lossOr(def float64) float64 {
	if e.LossProb > 0 {
		return e.LossProb
	}
	return def
}

func plot(fig func(Env) *metrics.Figure) func(Env) (Output, error) {
	return func(e Env) (Output, error) {
		f := fig(e)
		return Output{Table: f.Render(), Plot: f}, nil
	}
}

func trafficFigure(matrix func(TrafficOptions) []TrafficResult, table trafficTable) func(Env) (Output, error) {
	return func(e Env) (Output, error) {
		o := DefaultTrafficOptions()
		o.Seed, o.Sweep = e.Seed, e.Sweep
		results := matrix(o)
		return Output{Table: table.render(results), Results: results}, nil
	}
}

// scaleFigure is a churn run at the given size. Its RunReport is the whole
// result: an O(N^2) audit or protocol regression changes the event or packet
// counts of BENCH_<name>.json, which the byte contract rejects, and grows
// its wall time.
func scaleFigure(options func() ScaleOptions) func(Env) (Output, error) {
	return func(e Env) (Output, error) {
		o := options()
		o.Seed, o.Sweep, o.LPs = e.Seed, e.Sweep, e.LPs
		return Output{Table: RenderScale(o, ScaleChurn(o))}, nil
	}
}

// parsimFigure runs the N=1000 scale run at 1, 2 and 4 window workers. The
// deterministic fields must be byte-identical across worker counts — the
// figure fails if not — and each count's run is recorded, with its wall
// time, under the run's key suffixed /lps=K.
func parsimFigure(e Env) (Output, error) {
	counts := []int{1, 2, 4}
	if e.LPs > 4 {
		counts = append(counts, e.LPs)
	}
	o := DefaultScaleOptions()
	o.Seed, o.Sweep = e.Seed, e.Sweep
	var runs []metrics.RunReport
	var canon string
	for _, k := range counts {
		o.LPs = k
		rep := ScaleChurn(o)
		cp := rep
		cp.Wall = 0
		b, err := json.Marshal(cp)
		if err != nil {
			return Output{}, err
		}
		if canon == "" {
			canon = string(b)
		} else if string(b) != canon {
			return Output{}, fmt.Errorf("parsim determinism violated: -lps %d report differs from -lps %d\n lps=%d: %s\n  base: %s",
				k, counts[0], k, b, canon)
		}
		rep.Key = fmt.Sprintf("%s/lps=%d", rep.Key, k)
		runs = append(runs, rep)
		fmt.Fprintf(e.Stderr, "(parsim lps=%d wall=%v)\n", k, rep.Wall.Round(time.Millisecond))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Parsim worker scaling: N=%d scale churn, %d LPs\n", o.Groups*o.perGroup, o.Groups)
	fmt.Fprintf(&b, "%-8s %12s %14s %10s", "lps", "events", "pkts", "identical")
	for i, r := range runs {
		fmt.Fprintf(&b, "\n%-8d %12d %14d %10s", counts[i], r.Events, r.PktsDelivered, "yes")
	}
	fmt.Fprint(e.Stderr, renderParsimSpeedup(counts, runs))
	out := Output{Table: b.String(), Runs: runs}
	// TAMP_PARSIM_MIN_SPEEDUP turns the advisory wall table into a gate:
	// the nightly 4-vCPU runner requires the best worker count to beat
	// lps=1 by this factor. Off by default — wall time on a shared or
	// single-core machine proves nothing.
	if min := os.Getenv("TAMP_PARSIM_MIN_SPEEDUP"); min != "" {
		want, err := strconv.ParseFloat(min, 64)
		if err != nil {
			return out, fmt.Errorf("bad TAMP_PARSIM_MIN_SPEEDUP %q: %v", min, err)
		}
		best := 0.0
		for _, r := range runs[1:] {
			best = max(best, float64(runs[0].Wall)/float64(r.Wall))
		}
		if best < want {
			return out, fmt.Errorf("parsim speedup %.2fx below the %.2fx gate (TAMP_PARSIM_MIN_SPEEDUP)", best, want)
		}
		fmt.Fprintf(e.Stderr, "(parsim speedup gate: %.2fx >= %.2fx)\n", best, want)
	}
	return out, nil
}

// renderParsimSpeedup tabulates each worker count's wall time with the
// speedup over the first count's (lps=1). Wall times are machine-dependent,
// so the table goes to stderr, never into the figure.
func renderParsimSpeedup(counts []int, runs []metrics.RunReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s\n", "lps", "wall", "speedup")
	for i, r := range runs {
		fmt.Fprintf(&b, "%-8s %10v %7.2fx\n", fmt.Sprintf("lps=%d", counts[i]),
			r.Wall.Round(time.Millisecond), float64(runs[0].Wall)/float64(r.Wall))
	}
	return b.String()
}
