// Command tampperf is the repository's benchmark driver. It runs one
// workload per process and prints every metric by name with its unit, the
// operations attempted and failed and the run's sim_digest, then — as the
// last line of standard output — one JSON object with the keys correct,
// attempted, failed and metrics. bench/README.md documents the metrics.
//
//	tampperf --workload tree-churn --seed 42 --seconds 20 --trace 0
//	tampperf --workload all                 # every workload, one process each
//	tampperf --compare a.jsonl,b.jsonl      # A/A verdict over two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"

	"repro/bench/perf"
)

// commit is stamped by bench/run.sh (-ldflags -X); "unknown" when the
// checkout is not a git repository.
var commit = "unknown"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tampperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "host seconds the timed region is sized for on the reference box")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	out := fs.String("out", "bench/out", "directory a traced run writes trace-<workload>.json into")
	compare := fs.String("compare", "", "two comma-separated files of result lines: print the A/A verdict")
	contract := fs.String("contract", "BENCHMARK.json", "the benchmark contract --compare takes bounds from")
	toy := fs.Bool("toy", false, "smoke-test size: a few dozen nodes, one microbenchmark batch; the numbers mean nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return compareSets(*compare, *contract, stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "tampperf: --seconds must be positive")
		return 2
	}
	if *workload == "all" {
		return runAll([]string{
			"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace),
			"--out", *out, fmt.Sprintf("--toy=%v", *toy),
		}, stdout, stderr)
	}
	w, ok := perf.Find(*workload)
	if !ok {
		fmt.Fprintf(stderr, "tampperf: unknown workload %q\n", *workload)
		return 2
	}

	// One simulation thread plus room for the collector; fixed so numbers
	// from boxes with more cores stay comparable.
	runtime.GOMAXPROCS(2)
	m := perf.MachineFacts(commit)
	fmt.Fprintf(stdout, "# tampperf workload=%s seed=%d seconds=%g trace=%d\n", w.Name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# machine go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n", m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.Commit)
	fmt.Fprintf(stdout, "# why: %s\n", w.Why)

	res := w.Run(perf.Params{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *out, Machine: m, Toy: *toy})
	return report(res, stdout, stderr)
}

// report prints a run's notes, metrics, digest and verdict, and — only if
// every correctness check held — the result object as the last line.
func report(res perf.Result, stdout, stderr io.Writer) int {
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, mt := range res.Metrics {
		fmt.Fprintf(stdout, "%-34s %18.6f %s\n", mt.Name, mt.Value, mt.Unit)
	}
	fmt.Fprintf(stdout, "sim_digest %s\n", res.Digest)
	fmt.Fprintf(stdout, "operations attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if !res.Correct {
		fmt.Fprintf(stderr, "tampperf: %s: correctness check failed\n", res.Workload)
		return 1
	}
	out, err := json.Marshal(resultLine(res))
	if err != nil {
		fmt.Fprintf(stderr, "tampperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// line is the result object the benchmark contract asks for.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(r perf.Result) line {
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricVal)}
	for _, m := range r.Metrics {
		l.Metrics[m.Name] = metricVal{m.Value, m.Unit}
	}
	return l
}

// runAll runs every workload in a process of its own, so none inherits
// another's heap, and fails if any of them does.
func runAll(flags []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "tampperf: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range perf.Workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.Name}, flags...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "tampperf: %s: %v\n", w.Name, err)
			code = 1
		}
		fmt.Fprintln(stdout)
	}
	return code
}
