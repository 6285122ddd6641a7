// Package perf is the repository's benchmark: four long single-threaded
// workloads, each reporting host-side cost and exactly repeating simulated
// results, plus a traced mode that attributes the cost to layers from
// outside the program. bench/README.md documents every metric.
package perf

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// Params is one benchmark invocation.
type Params struct {
	Seed    int64
	Seconds float64 // requested host seconds of measurement
	Trace   bool    // traced run: per-layer metrics instead of end-to-end
	OutDir  string  // where a traced run writes trace-<workload>.json
	Machine Machine // recorded in the trace file
	// Toy shrinks every workload to a few dozen nodes and the
	// microbenchmarks to one batch: the size `go test` smokes the whole
	// benchmark at. Its numbers mean nothing.
	Toy bool

	speed *speedometer // the run's calibration loop; nil at toy size
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is what one workload run reports.
type Result struct {
	Workload  string
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   []Metric // end-to-end metrics, or per-layer ones when traced
	Digest    string   // sim_digest: hash of everything the simulation produced
	Notes     []string // sample counts, virtual durations, failed checks
}

// Workload is one named set of inputs.
type Workload struct {
	Name string
	Why  string
	run  func(Params) Result
}

// Run executes the workload.
func (w Workload) Run(p Params) Result {
	if !p.Toy {
		sp, err := newSpeedometer()
		if err != nil {
			return Result{Workload: w.Name, Notes: []string{"FAILED CHECK: " + err.Error()}}
		}
		defer sp.close()
		p.speed = sp
	}
	r := w.run(p)
	r.Workload = w.Name
	return r
}

// Workloads lists the benchmark's workloads; the names are final.
var Workloads = []Workload{
	{
		Name: "tree-churn",
		Why:  "hierarchical N=1000 on the parsim path under rolling kills: core receive, wire decode, directory upserts, auditors",
		run:  treeChurn.runWorkload,
	},
	{
		Name: "flat-alltoall",
		Why:  "all-to-all N=400 on the serial engine: netsim fan-out and the sim queue dominate, core is bypassed, almost no allocation",
		run:  flatAllToAll.runWorkload,
	},
	{
		Name: "sessions",
		Why:  "one million closed-loop client sessions on a 24-node tree: traffic tick wheel, service runtime, directory lookups",
		run:  sessions.runWorkload,
	},
	{
		Name: "chaos-matrix",
		Why:  "the CI gate's 22 scenarios x 7 schemes of short audited runs: cluster construction, rapid, gossip, proxy, chaos actions",
		run:  runChaosMatrix,
	},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// The three own-cluster workloads. virtPerSecond figures were calibrated on
// the 2-vCPU reference box (bench/NOISE.md) so that --seconds 20 measures
// about 20 host seconds.
var (
	treeChurn = simSpec{
		name: "tree-churn", scheme: harness.Hierarchical, groups: 50, perGroup: 20, recvSpan: "core.receive",
		// The 20 s join storm of -fig scale is the set-up.
		warmup:        20 * time.Second,
		virtPerSecond: 15 * time.Second,
		// A non-leader member of the next group dies every 5 s and returns
		// 10 s later: two daemons are down at any moment, striding the groups.
		killEvery: 5 * time.Second, downFor: 10 * time.Second, tail: 30 * time.Second,
		victim: func(s simSpec, rng *rand.Rand, k int) int {
			return (k%s.groups)*s.perGroup + 1 + rng.Intn(s.perGroup-1)
		},
		partitioned: true,
		setups:      1,
	}
	flatAllToAll = simSpec{
		name: "flat-alltoall", scheme: harness.AllToAll, groups: 20, perGroup: 20, recvSpan: "alltoall.receive",
		warmup:        10 * time.Second,
		virtPerSecond: 21 * time.Second,
		killEvery:     10 * time.Second, downFor: 8 * time.Second, tail: 10 * time.Second,
		victim: func(s simSpec, rng *rand.Rand, k int) int { return rng.Intn(s.groups * s.perGroup) },
		setups: 5,
	}
	sessions = simSpec{
		name: "sessions", scheme: harness.Hierarchical, groups: 4, perGroup: 8, recvSpan: "service.dispatch",
		warmup:        10 * time.Second,
		virtPerSecond: 20 * time.Second,
		// Victims are non-leader members of the last group, which serves no
		// request and hosts no gateway.
		killEvery: 12 * time.Second, downFor: 10 * time.Second, tail: 15 * time.Second,
		victim:   func(s simSpec, rng *rand.Rand, k int) int { return s.servers() + 1 + rng.Intn(s.perGroup-1) },
		sessions: 1_000_000,
		setups:   3,
	}
)

// runWorkload is the Workload.run of an own-cluster workload.
func (s simSpec) runWorkload(p Params) Result {
	if p.Toy {
		s = s.toy()
	}
	if p.Trace {
		return s.traced(p)
	}
	r := s.run(p, variant{})
	res := r.result()
	if r.err == nil {
		res.Metrics = r.endToEnd()
	}
	return res
}

// result turns a region into the operations verdict, digest and notes.
func (r region) result() Result {
	var res Result
	if r.err != nil {
		res.Notes = append(res.Notes, "FAILED CHECK: "+r.err.Error())
		return res
	}
	var checks, violations uint64
	for _, inv := range r.inv {
		checks += inv.Checks
		violations += inv.Violations
	}
	var requests, notOK uint64
	if r.traffic != nil {
		requests, notOK = r.traffic.Requests, r.traffic.Requests-r.traffic.OK
	}
	res.Attempted = checks + requests + r.expected
	res.Failed = violations + notOK + r.missing
	res.Correct = res.Failed == 0
	res.Digest = r.digest()
	res.Notes = append(res.Notes,
		fmt.Sprintf("timed region: %v virtual, %d events, %d nodes", r.virt, r.events, r.nodes),
		r.hostCost.note(),
		fmt.Sprintf("operations: %d invariant checks (%d violations), %d requests (%d not OK), %d expected removals (%d never seen)",
			checks, violations, requests, notOK, r.expected, r.missing),
		fmt.Sprintf("samples: %d kills, %d (kill, observer) removals behind sim_view_p95_ms, slowest %.3f ms", r.view.kills, r.view.samples, metrics.Percentile(r.view.allDelays, 100)),
	)
	return res
}

// EndToEnd declares the eight end-to-end metrics, in report order; lower is
// better for all of them. The first four are host-side, the sim_* ones are
// virtual time and repeat exactly for one (--seed, --seconds) pair.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"sim_node_kbps", "kB/s"},
	{"sim_detect_ms", "ms"},
	{"sim_converge_ms", "ms"},
	{"sim_view_p95_ms", "ms"},
}

// endToEnd assembles the end-to-end metrics from the set-up time, the timed
// region's host cost, the mean received kB/s per node and the removal
// delays.
func endToEnd(setupS float64, c hostCost, nodeKBps float64, v viewStats) []Metric {
	values := []float64{setupS, c.wallS, c.allocMB, c.liveHeapMB, nodeKBps, v.detect, v.converge, v.viewP95}
	out := make([]Metric, len(EndToEnd))
	for i, e := range EndToEnd {
		out[i] = Metric{e.Name, values[i], e.Unit}
	}
	return out
}

func (r region) endToEnd() []Metric {
	return endToEnd(r.setupS, r.hostCost, float64(r.net.BytesRecv)/float64(r.nodes)/r.virt.Seconds()/1000, r.view)
}

// digest hashes everything the simulation produced: event, packet and byte
// counts, invariant verdicts, traffic outcomes and every removal delay. A
// simulator-only change must leave it identical.
func (r region) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d net=%+v view=%v missing=%d/%d", r.events, r.net, r.view.allDelays, r.missing, r.expected)
	for _, inv := range r.inv {
		fmt.Fprintf(h, " %s=%d/%d@%d", inv.Name, inv.Violations, inv.Checks, inv.First)
	}
	if r.traffic != nil {
		fmt.Fprintf(h, " traffic=%+v", *r.traffic)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
