// Package harness builds clusters running any of the seven membership
// schemes and reruns every experiment from the paper's evaluation section
// (#14 in DESIGN.md's system inventory), emitting metrics.Figure tables
// that the benchmarks and the tampbench command print.
//
// What a scheme is — its names, node builder, settle and purge bounds,
// federation, audit arming, stats probe — is one row of the table in
// scheme.go, indexed by the Scheme constants (AllToAll, Gossip,
// Hierarchical, HierarchicalProxy, Rapid, HierarchicalAdaptive, RapidDC);
// no other file switches on or compares a scheme. NewCluster wires a
// topology, a netsim.Network, and one protocol node per host behind the
// Instance interface, so each experiment is written once and parameterized
// by Scheme; NewCell (cell.go) goes one step further for scenario runs and
// returns the cluster with its chaos environment and audit options, and
// runMatrix is the scenario x variant x scheme loop under every matrix.
//
// What a figure is — its -fig name, help line, membership in "all", BENCH
// file, default axes and the function that regenerates it — is one row of
// the table in figure.go; cmd/tampbench and the root BenchmarkFigure are
// loops over Figures(). The experiments behind the rows live one per file:
// figures.go (Figs. 2, 11-13 and the Section 4 analytic tables), fig14.go
// (request routing under a failure), ablations.go (piggyback depth, group
// size, MaxLoss, gossip fanout), accuracy.go (view completeness/accuracy
// under churn), and breakdown.go (bandwidth by packet type, detection-time
// distribution). Beyond the paper's figures: chaos.go runs the scenario x
// scheme invariant matrix (cell.go deploys the federated
// hierarchical+proxy row through proxy.Deploy, as fig14.go deploys its two
// data centers), scale.go runs the N=1000/N=4000 churn
// audits, and traffic.go runs the user-level session-traffic matrix
// (docs/TRAFFIC.md).
//
// The package also contains the parallel sweep engine (runner.go): a
// Pool fans independent simulation runs out over a bounded set of worker
// goroutines (Sweep.Workers, default GOMAXPROCS). Each run's seed is
// derived as DeriveSeed(base, key) — base XOR an FNV-1a hash of the
// run's stable key — and each result lands in a slot reserved at
// submission, so output is byte-identical for any worker count,
// including 1; sweep, curves and schemeCurves are that shape written once
// for every swept figure. Wait returns one metrics.RunReport per run
// (wall/virtual time, event and packet counts, peak directory size),
// aggregated into a metrics.SweepSummary for progress output;
// Cluster.Observe captures the report at the end of a run.
package harness
