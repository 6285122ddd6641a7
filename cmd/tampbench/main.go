// Command tampbench regenerates every table and figure of the paper's
// evaluation section (plus this repository's ablation studies) and prints
// them as aligned text tables.
//
// Sweeps fan their independent runs (one per cluster size, ablation point,
// or failure trial) across a worker pool; -workers bounds the fan-out and
// the output is byte-identical for any worker count, because each run's
// seed derives from the sweep seed and the run's key, never from
// scheduling (see internal/harness.DeriveSeed).
//
// Usage:
//
//	tampbench -fig all
//	tampbench -fig 11            # figures: 2, 11, 12, 13, 14, 4x, 4b
//	tampbench -fig abl-piggyback # ablations: abl-piggyback, abl-group, abl-maxloss, abl-fanout
//	tampbench -fig breakdown     # extra instrumentation: breakdown, detect-dist, accuracy
//	tampbench -fig 11 -sizes 20,60,100 -pergroup 20 -seed 7 -loss 0.01
//	tampbench -fig all -workers 8 -v            # parallel sweep with per-run progress
//	tampbench -fig 11 -cpuprofile cpu.pprof     # profile the sweep hot spots
//	tampbench -fig chaos                        # scenario x scheme invariant matrix (BENCH_chaos.json)
//	tampbench -fig traffic                      # user-level traffic matrix (BENCH_traffic.json)
//	tampbench -fig traffic-hedge                # request-hedging ablation (BENCH_traffic-hedge.json)
//	tampbench -fig scale                        # N=1000 churn run (BENCH_scale.json)
//	tampbench -fig scale4k -lps 4               # N=4000 churn run, 4 parsim workers (BENCH_scale4k.json)
//	tampbench -fig scale10k -lps 4              # N=10000 churn run (BENCH_scale10k.json)
//	tampbench -fig parsim                       # worker-scaling figure: lps=1/2/4 byte-identity + speedup
//	tampbench -diff old.json new.json           # regression gate between two BENCH files
//	tampbench -history [fig ...]                # committed BENCH_*.json trajectory from git
//
// The scale figures always execute through the parsim coordinator
// (internal/parsim): the topology fixes the LP decomposition and -lps picks
// only the worker count, which never changes the report bytes — see
// docs/PARSIM.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 11, 12, 13, 14, 4x, 4b, abl-piggyback, abl-group, abl-maxloss, abl-fanout, accuracy, breakdown, detect-dist, chaos, traffic, traffic-hedge, scale, scale4k, scale10k, parsim, all (the scale* churn runs and the parsim scaling figure are excluded from all: they are long)")
	sizes := flag.String("sizes", "20,40,60,80,100", "cluster sizes for figures 11-13")
	perGroup := flag.Int("pergroup", 20, "nodes per network/membership group")
	seed := flag.Int64("seed", 42, "simulation RNG seed (per-run seeds derive from it)")
	loss := flag.Float64("loss", 0, "injected packet loss probability")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation runs per sweep (results are identical for any value)")
	lps := flag.Int("lps", 1, "parsim worker goroutines inside the scale/scale4k/scale10k runs (output is byte-identical for any value; >1 cuts wall time on multi-core machines)")
	verbose := flag.Bool("v", false, "print one progress line per run (stderr) plus sweep totals")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole regeneration to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after regeneration to this file")
	jsonOut := flag.Bool("json", false, "also write BENCH_<fig>.json with per-run reports (chaos and scale always write it)")
	dclocal := flag.Bool("dclocal", false, "with -fig traffic: DC-local serving policy (multi-DC topology, sessions route only to same-DC replicas); writes BENCH_traffic-dclocal.json")
	chart := flag.Bool("chart", false, "also render sparkline charts")
	svgDir := flag.String("svg", "", "directory to write one SVG per figure (created if missing)")
	diff := flag.Bool("diff", false, "compare two BENCH json files (old new) and exit non-zero on regressions")
	diffWall := flag.Float64("diff-wall", 1.5, "with -diff: flag total wall time growing past this factor (0 disables the wall gate)")
	history := flag.Bool("history", false, "walk git for committed BENCH_*.json files and print each figure's wall/packet trajectory (args restrict to figure names)")
	flag.Parse()

	if *diff {
		os.Exit(runDiff(flag.Args(), *diffWall))
	}
	if *history {
		os.Exit(runHistory(flag.Args(), *diffWall))
	}

	sz, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampbench:", err)
		os.Exit(2)
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	sw := harness.Sweep{Workers: *workers, Progress: progress}
	o := harness.DefaultOptions()
	o.Sizes = sz
	o.PerGroup = *perGroup
	o.Seed = *seed
	o.LossProb = *loss
	o.Sweep = sw

	runners := map[string]func() *metrics.Figure{
		"2": func() *metrics.Figure {
			per := harness.MeasureReceiveCost(5000)
			fmt.Printf("(measured per-heartbeat receive cost: %v)\n", per)
			return harness.Figure2(per, []int{250, 500, 1000, 2000, 4000})
		},
		"11": func() *metrics.Figure { return harness.Figure11(o) },
		"12": func() *metrics.Figure { return harness.Figure12(o) },
		"13": func() *metrics.Figure { return harness.Figure13(o) },
		"14": func() *metrics.Figure {
			fo := harness.DefaultFigure14Options()
			fo.Seed = *seed
			return harness.Figure14(fo)
		},
		"4x": func() *metrics.Figure { return harness.Section4([]int{20, 100, 500, 1000, 4000}) },
		"4b": func() *metrics.Figure { return harness.Section4FixedBandwidth([]int{20, 100, 500, 1000, 4000}) },
		"abl-piggyback": func() *metrics.Figure {
			return harness.AblationPiggyback(sw, []int{0, 1, 3, 6, 8}, lossOr(*loss, 0.05), *seed)
		},
		"abl-group": func() *metrics.Figure {
			return harness.AblationGroupSize(sw, 40, []int{5, 10, 20, 40}, *seed)
		},
		"abl-maxloss": func() *metrics.Figure {
			return harness.AblationMaxLoss(sw, []int{2, 3, 5, 8}, lossOr(*loss, 0.05), *seed)
		},
		"accuracy": func() *metrics.Figure {
			o := harness.DefaultAccuracyOptions()
			o.Seed = *seed
			o.Sweep = sw
			return harness.Accuracy(o)
		},
		"breakdown": func() *metrics.Figure { return harness.BandwidthBreakdown(o) },
		"detect-dist": func() *metrics.Figure {
			return harness.DetectionDistribution(harness.Hierarchical, o, 60, 12)
		},
		"abl-fanout": func() *metrics.Figure {
			return harness.AblationGossipFanout(sw, 40, []int{1, 2, 3, 5}, *seed)
		},
	}
	// The figures that are not one metrics.Figure: each prints its own table
	// and always records itself in a BENCH_<fig>.json.
	benches := map[string]func(log *metrics.ReportLog) error{
		"chaos":         func(log *metrics.ReportLog) error { return runChaos(sw, *seed, log) },
		"traffic":       func(log *metrics.ReportLog) error { return runTraffic(sw, *seed, log, *dclocal) },
		"traffic-hedge": func(log *metrics.ReportLog) error { return runTrafficHedge(sw, *seed, log) },
		"parsim":        func(*metrics.ReportLog) error { return runParsim(sw, *seed, *lps) },
		"scale":         func(log *metrics.ReportLog) error { return runScale(sw, *seed, *lps, log, "scale") },
		"scale4k":       func(log *metrics.ReportLog) error { return runScale(sw, *seed, *lps, log, "scale4k") },
		"scale10k":      func(log *metrics.ReportLog) error { return runScale(sw, *seed, *lps, log, "scale10k") },
	}
	order := []string{"2", "11", "12", "13", "14", "4x", "4b", "abl-piggyback", "abl-group",
		"abl-maxloss", "abl-fanout", "accuracy", "breakdown", "detect-dist", "chaos", "traffic"}

	var todo []string
	if *fig == "all" {
		// scale stays out of "all": the N=1000 run takes minutes and has
		// its own BENCH file; regenerate it explicitly with -fig scale.
		todo = order
	} else {
		if runners[*fig] == nil && benches[*fig] == nil {
			fmt.Fprintf(os.Stderr, "tampbench: unknown figure %q (want one of %s, traffic-hedge, scale, scale4k, scale10k, parsim, all)\n", *fig, strings.Join(order, ", "))
			os.Exit(2)
		}
		todo = []string{*fig}
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
	}
	code := 0
	for _, name := range todo {
		start := time.Now()
		// Reports accumulate per figure; -json snapshots them into
		// BENCH_<fig>.json after the figure regenerates.
		log := metrics.NewReportLog()
		sw.Collector = log
		o.Sweep = sw
		if run := benches[name]; run != nil {
			if err := run(log); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				code = 1
			}
			fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
			fmt.Println()
			continue
		}
		table := runners[name]()
		fmt.Println(table.Render())
		if *jsonOut {
			if err := writeBench(name, *seed, log.Reports(), nil); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				code = 1
			}
		}
		if *chart {
			fmt.Println(table.RenderChart(48))
		}
		if *svgDir != "" {
			path := filepath.Join(*svgDir, "fig-"+name+".svg")
			if err := os.WriteFile(path, []byte(table.RenderSVG(720, 440)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				code = 1
				break
			}
			fmt.Printf("(svg: %s)\n", path)
		}
		// Timing goes to stderr so stdout stays byte-identical across
		// worker counts and machines.
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
	os.Exit(code)
}

// writeBench records a figure's runs, plus its structured results if it
// has any, in BENCH_<fig>.json.
func writeBench(fig string, seed int64, runs []metrics.RunReport, results any) error {
	return metrics.WriteBenchJSON("BENCH_"+fig+".json", metrics.BenchJSON{
		Fig:     fig,
		Seed:    seed,
		Runs:    runs,
		Summary: metrics.Summarize(runs),
		Results: results,
	})
}

// writeTable prints a rendered table and records its runs; the BENCH file
// is always written, so the trajectory is machine-trackable across commits.
func writeTable(fig, table string, seed int64, log *metrics.ReportLog, results any) error {
	fmt.Println(table)
	if err := writeBench(fig, seed, log.Reports(), results); err != nil {
		return err
	}
	fmt.Println("(json: BENCH_" + fig + ".json)")
	return nil
}

// runChaos regenerates the chaos matrix (scenario x scheme invariant
// verdicts) and always records the verdicts in BENCH_chaos.json so the
// robustness trajectory is machine-trackable across commits. The matrix
// includes the adversarial scenarios (bit-rot, one-way-wan, limping-leader,
// replay-storm); their injected-fault and protocol-reject counters land in
// each run's pkts_rejected / faults_injected fields.
func runChaos(sw harness.Sweep, seed int64, log *metrics.ReportLog) error {
	co := harness.DefaultChaosOptions()
	co.Seed = seed
	co.Sweep = sw
	results := harness.ChaosMatrix(co)
	return writeTable("chaos", harness.RenderChaosMatrix(results), seed, log, results)
}

// runTraffic regenerates the traffic matrix (scenario x scheme user-level
// outcomes: misrouted requests, session migrations, latency tails) and
// always records it in BENCH_traffic.json so the user-experience trajectory
// is machine-trackable across commits. docs/TRAFFIC.md defines the model
// and every reported field.
func runTraffic(sw harness.Sweep, seed int64, log *metrics.ReportLog, dclocal bool) error {
	to := harness.DefaultTrafficOptions()
	to.Seed = seed
	to.Sweep = sw
	to.DCLocal = dclocal
	fig := "traffic"
	if dclocal {
		// The DC-local policy is a different deployment, not a new baseline
		// for the default matrix: it gets its own figure name and BENCH file
		// so -diff never compares across policies.
		fig = "traffic-dclocal"
	}
	results := harness.TrafficMatrix(to)
	return writeTable(fig, harness.RenderTrafficMatrix(results), seed, log, results)
}

// runTrafficHedge regenerates the request-hedging ablation: the
// slow-replica fault timelines (limping-leader, gray-node) on every
// traffic scheme, once un-hedged and once with a duplicate leg after
// harness.TrafficHedgeAfter of silence. The matrix prices what hedging
// buys (tail latency, timeouts) and what it costs (duplicate requests)
// and lands in BENCH_traffic-hedge.json.
func runTrafficHedge(sw harness.Sweep, seed int64, log *metrics.ReportLog) error {
	to := harness.DefaultTrafficOptions()
	to.Seed = seed
	to.Sweep = sw
	results := harness.TrafficHedgeMatrix(to)
	return writeTable("traffic-hedge", harness.RenderTrafficHedgeMatrix(results), seed, log, results)
}

// runScale executes the churn run — N=1000 for "scale", N=4000 (the
// paper's Figure 2 ceiling) for "scale4k", N=10000 (parsim's raison
// d'être) for "scale10k" — and always records its RunReport in
// BENCH_<fig>.json, so O(N^2) audit or protocol regressions surface in
// `tampbench -diff` as event/packet/wall growth. -lps only changes wall
// time, never the report.
func runScale(sw harness.Sweep, seed int64, lps int, log *metrics.ReportLog, fig string) error {
	o := harness.DefaultScaleOptions()
	switch fig {
	case "scale4k":
		o = harness.Scale4kOptions()
	case "scale10k":
		o = harness.Scale10kOptions()
	}
	o.Seed = seed
	o.Sweep = sw
	o.LPs = lps
	rep := harness.ScaleChurn(o)
	return writeTable(fig, harness.RenderScale(o, rep), seed, log, nil)
}

// runParsim is the parsim worker-scaling figure: the N=1000 scale run at 1,
// 2, and 4 window workers. The deterministic fields must be byte-identical
// across worker counts — the run fails loudly if not — and the per-count
// wall times land in BENCH_parsim.json (keys suffixed /lps=K), where
// `tampbench -history parsim` renders them as a speedup table across
// commits. Wall-derived numbers go to stderr so stdout stays deterministic.
func runParsim(sw harness.Sweep, seed int64, maxLPs int) error {
	counts := []int{1, 2, 4}
	if maxLPs > 4 {
		counts = append(counts, maxLPs)
	}
	base := harness.DefaultScaleOptions()
	base.Seed = seed
	var runs []metrics.RunReport
	var canon string
	for _, k := range counts {
		o := base
		o.LPs = k
		o.Sweep = sw
		start := time.Now()
		rep := harness.ScaleChurn(o)
		wall := time.Since(start)
		cp := rep
		cp.Wall = 0
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		if canon == "" {
			canon = string(b)
		} else if string(b) != canon {
			return fmt.Errorf("parsim determinism violated: -lps %d report differs from -lps %d\n lps=%d: %s\n  base: %s",
				k, counts[0], k, b, canon)
		}
		rep.Key = fmt.Sprintf("%s/lps=%d", rep.Key, k)
		rep.Wall = wall
		runs = append(runs, rep)
		fmt.Fprintf(os.Stderr, "(parsim lps=%d wall=%v)\n", k, wall.Round(time.Millisecond))
	}
	fmt.Printf("# Parsim worker scaling: N=%d scale churn, %d LPs\n",
		base.Groups*base.PerGroup, base.Groups)
	fmt.Printf("%-8s %12s %14s %10s\n", "lps", "events", "pkts", "identical")
	for i, r := range runs {
		fmt.Printf("%-8d %12d %14d %10s\n", counts[i], r.Events, r.PktsDelivered, "yes")
	}
	fmt.Fprint(os.Stderr, renderParsimSpeedup(runs))
	if err := writeBench("parsim", seed, runs, nil); err != nil {
		return err
	}
	fmt.Println("(json: BENCH_parsim.json)")
	// TAMP_PARSIM_MIN_SPEEDUP turns the advisory wall table into a gate:
	// the nightly 4-vCPU runner requires the best worker count to beat
	// lps=1 by this factor. Off by default — wall time on a shared or
	// single-core machine proves nothing.
	if min := os.Getenv("TAMP_PARSIM_MIN_SPEEDUP"); min != "" {
		want, err := strconv.ParseFloat(min, 64)
		if err != nil {
			return fmt.Errorf("bad TAMP_PARSIM_MIN_SPEEDUP %q: %v", min, err)
		}
		best := 0.0
		for _, r := range runs[1:] {
			if s := float64(runs[0].Wall) / float64(r.Wall); s > best {
				best = s
			}
		}
		if best < want {
			return fmt.Errorf("parsim speedup %.2fx below the %.2fx gate (TAMP_PARSIM_MIN_SPEEDUP)", best, want)
		}
		fmt.Fprintf(os.Stderr, "(parsim speedup gate: %.2fx >= %.2fx)\n", best, want)
	}
	return nil
}

// runDiff is the regression gate: it compares two BENCH json files and
// reports runs that disappeared, packet-count or wall-time blowups, new
// invariant violations, and chaos verdict flips.
func runDiff(args []string, wallFactor float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "tampbench: -diff needs exactly two arguments: old.json new.json")
		return 2
	}
	oldB, err := metrics.ReadBenchJSON(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampbench:", err)
		return 2
	}
	newB, err := metrics.ReadBenchJSON(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampbench:", err)
		return 2
	}
	o := metrics.DefaultDiffOptions()
	o.WallFactor = wallFactor
	regs := metrics.CompareBench(oldB, newB, o)
	fmt.Print(metrics.RenderRegressions(regs))
	if len(regs) > 0 {
		return 1
	}
	return 0
}

func lossOr(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
