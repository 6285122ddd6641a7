// Package metrics collects and renders experiment results (#13 in
// DESIGN.md's system inventory).
//
// Two layers share the package. The figure layer models the paper's
// plots: a Figure is a set of named Series sampled over a common X axis,
// rendered as an aligned text table (the format the determinism tests
// compare byte-for-byte) or as an SVG line chart. ChangeRecorder hooks
// membership.Directory events to extract detection and convergence times
// from a run, and Percentile summarizes sample distributions.
//
// The observability layer reports on the runs themselves: a RunReport
// captures one simulation run's wall time, virtual time, executed event
// count, packets delivered and dropped, bytes delivered, and peak
// directory size — filled in by the harness worker pool, which stamps
// the run key and derived seed. Summarize folds a sweep's reports into a
// SweepSummary (total wall time, aggregate events/s, realtime multiple)
// printed after each parallel sweep.
//
// Two further layers were added as the harness grew. BenchJSON (json.go)
// serializes a figure's runs and results to the committed BENCH_*.json
// files, which .github/bench-contract.sh holds byte for byte but wall time.
// The user-outcome layer (histogram.go, traffic.go)
// serves the session-traffic matrix: Histogram is a fixed-shape log-linear
// (HDR-style) histogram whose quantiles are deterministic and mergeable,
// and TrafficStats is the per-run user-level outcome record (misroutes,
// migrations, latency tails) defined field by field in docs/TRAFFIC.md.
package metrics
