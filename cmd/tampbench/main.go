// Command tampbench regenerates every table and figure of the paper's
// evaluation section (plus this repository's ablation studies, matrices and
// scale runs) and prints them as aligned text tables. What it can
// regenerate is the figure table in internal/harness/figure.go; `tampbench
// -h` lists every row.
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
//	tampbench -fig 11 -sizes 20,60,100 -pergroup 20 -seed 7 -loss 0.01
//	tampbench -fig all -workers 8 -v            # parallel sweep with per-run progress
//	tampbench -fig 11 -cpuprofile cpu.pprof     # profile the sweep hot spots
//	tampbench -fig scale4k -lps 4               # 4 parsim workers inside the run
//
// The [BENCH] figures rewrite their committed BENCH_<fig>.json in the
// working directory; .github/bench-contract.sh is the gate that holds the
// regenerated file to the committed one, line for line but wall time.
//
// The scale figures always execute through the parsim coordinator
// (internal/parsim): the topology fixes the LP decomposition and -lps picks
// only the worker count, which never changes the report bytes — see
// docs/PARSIM.md.
package main

import (
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// allFigures is the -fig value that regenerates every row marked All.
const allFigures = "all"

// run is the whole command: tables go to stdout, timings, progress and
// diagnostics to stderr, BENCH_*.json into the working directory. It returns
// the exit code: 1 for a failed write or gate, 2 for bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	def := harness.DefaultOptions()
	fs := flag.NewFlagSet("tampbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", allFigures, "figure to regenerate:\n"+figureUsage())
	sizes := fs.String("sizes", joinSizes(def.Sizes), "cluster sizes for the figures swept over them")
	perGroup := fs.Int("pergroup", def.PerGroup, "nodes per network/membership group")
	seed := fs.Int64("seed", def.Seed, "simulation RNG seed (per-run seeds derive from it)")
	loss := fs.Float64("loss", def.LossProb, "injected packet loss probability")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation runs per sweep (results are identical for any value)")
	lps := fs.Int("lps", 1, "parsim worker goroutines inside the partitioned runs (output is byte-identical for any value; >1 cuts wall time on multi-core machines)")
	verbose := fs.Bool("v", false, "print one progress line per run (stderr) plus sweep totals")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole regeneration to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after regeneration to this file")
	jsonOut := fs.Bool("json", false, "also write BENCH_<fig>.json with per-run reports (the [BENCH] figures always write it)")
	chart := fs.Bool("chart", false, "also render sparkline charts")
	svgDir := fs.String("svg", "", "directory to write one SVG per figure (created if missing)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "tampbench:", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	env := harness.Env{Options: def, LPs: *lps, Stderr: stderr}
	var err error
	if env.Sizes, err = parseSizes(*sizes); err != nil {
		return fail(2, err)
	}
	env.PerGroup, env.Seed, env.LossProb = *perGroup, *seed, *loss
	env.Sweep = harness.Sweep{Workers: *workers}
	if *verbose {
		env.Sweep.Progress = stderr
	}

	var todo []harness.FigureSpec
	for _, f := range harness.Figures() {
		if f.Name == *fig || *fig == allFigures && f.All {
			todo = append(todo, f)
		}
	}
	if len(todo) == 0 {
		return fail(2, fmt.Errorf("unknown figure %q (want one of %s, %s)", *fig, strings.Join(harness.FigureNames(), ", "), allFigures))
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return fail(1, err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
	}
	code := 0
	for _, f := range todo {
		start := time.Now()
		out, err := f.Run(env)
		if out.Table != "" {
			if werr := emit(f, out, *seed, *jsonOut, *chart, *svgDir, stdout); werr != nil {
				code = fail(1, werr)
			}
		}
		if err != nil {
			code = fail(1, err)
		}
		// Timing goes to stderr so stdout stays byte-identical across
		// worker counts and machines.
		fmt.Fprintf(stderr, "(%s regenerated in %v)\n", f.Name, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(1, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(1, err)
		}
		if err := f.Close(); err != nil {
			return fail(1, err)
		}
	}
	return code
}

// emit prints one regenerated figure and writes the files asked for: its
// BENCH json (always, for a figure tracked across commits), its chart, its
// SVG.
func emit(f harness.FigureSpec, out harness.Output, seed int64, jsonOut, chart bool, svgDir string, stdout io.Writer) error {
	fmt.Fprintln(stdout, out.Table)
	if f.Bench || jsonOut {
		path := "BENCH_" + f.Name + ".json"
		err := metrics.WriteBenchJSON(path, metrics.BenchJSON{
			Fig:     f.Name,
			Seed:    seed,
			Runs:    out.Runs,
			Summary: metrics.Summarize(out.Runs),
			Results: out.Results,
		})
		if err != nil {
			return err
		}
		if f.Bench {
			fmt.Fprintln(stdout, "(json: "+path+")")
		}
	}
	if out.Plot == nil {
		return nil
	}
	if chart {
		fmt.Fprintln(stdout, out.Plot.RenderChart(48))
	}
	if svgDir != "" {
		path := filepath.Join(svgDir, "fig-"+f.Name+".svg")
		if err := os.WriteFile(path, []byte(out.Plot.RenderSVG(720, 440)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(svg: %s)\n", path)
	}
	return nil
}

// figureUsage is the -fig help: one line per row of the figure table.
func figureUsage() string {
	var b strings.Builder
	for _, f := range harness.Figures() {
		marks := ""
		if f.Bench {
			marks += " [BENCH]"
		}
		if !f.All {
			marks += " [not in " + allFigures + "]"
		}
		fmt.Fprintf(&b, "  %-14s %s%s\n", f.Name, f.Usage, marks)
	}
	fmt.Fprintf(&b, "  %-14s every row not marked as left out, in this order", allFigures)
	return b.String()
}

func joinSizes(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
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
