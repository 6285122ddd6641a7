package harness

// The traffic matrix drives virtual client sessions through every chaos
// fault timeline on every scheme and reports user-level outcomes —
// misrouted requests, session-migration latency, request-latency tails —
// instead of protocol-level counters. Cells run through the same
// deterministic worker pool as the figures: seeds derive from the sweep
// seed and the cell key, so the rendered table is byte-identical for any
// -workers count.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TrafficOptions parametrize the scenario x scheme traffic matrix.
type TrafficOptions struct {
	Seed int64
	// sessions is the virtual-client population per cell; same-package
	// tests shrink it.
	sessions int
	// Scenarios restricts the matrix to the named library scenarios;
	// empty means the default traffic-relevant subset.
	Scenarios []string
	// HedgeAfter, when positive, turns on request hedging for every session
	// (traffic.Options.HedgeAfter): a pinned request still unresolved after
	// this long sends a duplicate leg to a second replica. Zero (the
	// default) keeps the committed matrices un-hedged; the hedging ablation
	// sets it per variant.
	HedgeAfter time.Duration
	Sweep      Sweep
}

// DefaultTrafficOptions runs a thousand closed-loop sessions per cell at
// seed 42, on the chaos matrix's shape.
func DefaultTrafficOptions() TrafficOptions {
	return TrafficOptions{Seed: 42, sessions: 1000}
}

// trafficPartitions is the app's partition-space size; each host serves
// partition (host index mod trafficPartitions), so every partition has one
// replica per group.
const trafficPartitions = 8

// TrafficScenarioNames is the default scenario subset: the fault timelines
// whose user-visible cost is the point of the comparison. Pure telemetry
// scenarios (bit-rot, replay-storm) stay in the chaos matrix.
var TrafficScenarioNames = []string{
	"steady", "kill-restart", "leader-kill", "group-outage",
	"partition-heal", "flapping", "proxy-failover", "proxy-quorum-loss",
	"dc-fallback",
}

// trafficWarmup delays session opening past cluster bootstrap, so measured
// failures are caused by the scenario's faults, not by empty directories.
// Every library scenario's first fault lands at 20s, after the warmup.
const trafficWarmup = 10 * time.Second

// trafficDrain lets in-flight requests resolve after the measurement
// window closes (the client timeout is 2s; 5s covers relayed paths).
const trafficDrain = 5 * time.Second

// trafficAppName is the service the sessions invoke.
const trafficAppName = "app"

// trafficSettle is the measurement tail after the last fault: the largest
// ChaosSettle bound across the compared schemes, so every scheme in a row
// runs for the same virtual duration.
func trafficSettle(n int) time.Duration {
	var max time.Duration
	for _, s := range TrafficSchemes {
		if d := ChaosSettle(s, n); d > max {
			max = d
		}
	}
	return max
}

func (o TrafficOptions) scenarios() []*chaos.Scenario {
	if len(o.Scenarios) == 0 {
		return findScenarios(TrafficScenarioNames)
	}
	return findScenarios(o.Scenarios)
}

// attachRuntimes layers a service runtime over every node of a plain
// cluster, before or after StartAll: the runtime's mux replaces the
// daemon's endpoint handler and delegates membership packets to it.
func attachRuntimes(c *Cluster) []*service.Runtime {
	rts := make([]*service.Runtime, len(c.Nodes))
	for h, n := range c.Nodes {
		m, ok := n.(service.Member)
		if !ok {
			panic(fmt.Sprintf("harness: %T does not implement service.Member", n))
		}
		rts[h] = service.NewRuntime(service.DefaultConfig(), c.Eng, c.Net.Endpoint(topology.HostID(h)), m)
	}
	return rts
}

// registerApp publishes the traffic app on every host: host h serves
// partition h mod trafficPartitions.
func registerApp(rts []*service.Runtime) {
	for h, rt := range rts {
		err := rt.Register(trafficAppName, fmt.Sprintf("%d", h%trafficPartitions), time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil })
		if err != nil {
			panic(err)
		}
	}
}

// RunTrafficScenario executes one (scenario, scheme) traffic cell: build
// the cluster with a service runtime on every host, open the session
// population after warmup, install the fault timeline, run to the chaos
// settle bound, and report the cluster counters with user-level traffic
// stats attached.
func RunTrafficScenario(scheme Scheme, sc *chaos.Scenario, o TrafficOptions, seed int64) metrics.RunReport {
	c := NewCell(scheme, sc, matrixGroups, matrixPerGroup, seed)
	rts := c.Runtimes()
	registerApp(rts)
	n := c.Top.NumHosts()
	c.StartAll()
	if err := sc.Install(c.Env); err != nil {
		panic(err) // library scenarios are valid by construction
	}

	topt := traffic.DefaultOptions()
	topt.Service = trafficAppName
	topt.Sessions = o.sessions
	topt.Partitions = trafficPartitions
	topt.HedgeAfter = o.HedgeAfter
	l := traffic.New(c.Eng, topt, rts, func(id membership.NodeID) bool {
		return c.Nodes[int(id)].Running()
	})
	c.Eng.Schedule(trafficWarmup, l.Start)

	// Unlike the chaos matrix (whose deadline is each scheme's own settle
	// bound), every scheme measures over the same window — the slowest
	// scheme's bound — so per-row request counts and failure totals are
	// directly comparable across schemes.
	deadline := c.Eng.Now() + sc.End() + trafficSettle(n)
	c.Eng.Run(deadline)
	l.Stop()
	c.Eng.Run(deadline + trafficDrain)

	rep := c.Observe()
	st := l.Stats()
	rep.Traffic = &st
	return rep
}

// TrafficResult is one traffic-matrix cell.
type TrafficResult struct {
	Scenario string               `json:"scenario"`
	Scheme   string               `json:"scheme"`
	Traffic  metrics.TrafficStats `json:"traffic"`
}

// TrafficMatrix runs every (scenario, scheme) cell through the worker pool
// and returns results in scenario-major, scheme-minor order.
func TrafficMatrix(o TrafficOptions) []TrafficResult {
	return trafficMatrix("traffic", o, matrixVariant{hedge: o.HedgeAfter})
}

func trafficMatrix(fig string, o TrafficOptions, variants ...matrixVariant) []TrafficResult {
	var out []TrafficResult
	runMatrix(o.Sweep, o.Seed, fig, o.scenarios(), variants, TrafficSchemes,
		func(scheme Scheme, sc *chaos.Scenario, v matrixVariant, seed int64) metrics.RunReport {
			o := o // cells run concurrently
			o.HedgeAfter = v.hedge
			return RunTrafficScenario(scheme, sc, o, seed)
		},
		func(scenario string, scheme Scheme, rep metrics.RunReport) {
			out = append(out, TrafficResult{Scenario: scenario, Scheme: scheme.String(), Traffic: *rep.Traffic})
		})
	return out
}

// trafficTable is a traffic figure's table: one row per cell, the scenario
// (in a column scenarioWidth wide) and scheme, then the figure's counter
// columns. Output is deterministic and byte-identical for any worker count
// (no wall times, all quantiles from deterministic histograms).
type trafficTable struct {
	title         string
	scenarioWidth int
	cols          []trafficColumn
}

// trafficColumn is one right-aligned counter column of a traffic table.
type trafficColumn struct {
	head  string
	width int
	cell  func(t *metrics.TrafficStats) any
}

func (tt trafficTable) render(results []TrafficResult) string {
	var b strings.Builder
	b.WriteString(tt.title)
	fmt.Fprintf(&b, "%-*s %-18s", tt.scenarioWidth, "scenario", "scheme")
	for _, c := range tt.cols {
		fmt.Fprintf(&b, " %*s", c.width, c.head)
	}
	b.WriteByte('\n')
	for _, r := range results {
		fmt.Fprintf(&b, "%-*s %-18s", tt.scenarioWidth, r.Scenario, r.Scheme)
		for _, c := range tt.cols {
			fmt.Fprintf(&b, " %*v", c.width, c.cell(&r.Traffic))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The columns both traffic tables print.
var (
	colRequests = trafficColumn{"requests", 9, func(t *metrics.TrafficStats) any { return t.Requests }}
	colOK       = trafficColumn{"ok", 9, func(t *metrics.TrafficStats) any { return t.OK }}
	colTimeout  = trafficColumn{"timeout", 8, func(t *metrics.TrafficStats) any { return t.Timeouts }}
	colUnavail  = trafficColumn{"unavail", 7, func(t *metrics.TrafficStats) any { return t.Unavailable }}
	colMigr     = trafficColumn{"migr", 5, func(t *metrics.TrafficStats) any { return t.Migrations }}
	colReqTail  = []trafficColumn{
		{"req-p50", 9, func(t *metrics.TrafficStats) any { return t.ReqP50.Round(time.Millisecond) }},
		{"req-p99", 9, func(t *metrics.TrafficStats) any { return t.ReqP99.Round(time.Millisecond) }},
		{"req-p999", 9, func(t *metrics.TrafficStats) any { return t.ReqP999.Round(time.Millisecond) }},
	}
)

// trafficMatrixTable is the user-level outcome table of the traffic matrix.
var trafficMatrixTable = trafficTable{
	title:         "# Traffic matrix: what each fault timeline cost the users\n",
	scenarioWidth: 18,
	cols: append([]trafficColumn{
		colRequests, colOK,
		{"misroute", 8, func(t *metrics.TrafficStats) any { return t.Misrouted }},
		colTimeout, colUnavail, colMigr,
		{"mig-p99", 10, func(t *metrics.TrafficStats) any { return t.MigP99.Round(time.Millisecond) }},
	}, colReqTail...),
}

// TrafficHedgeAfter is the hedging ablation's hedge delay: a quarter of
// the 2s client timeout, long enough that a healthy replica (sub-100ms
// RTT) never triggers it and short enough that a gray or limping replica
// loses the race well before the session would time out and migrate.
const TrafficHedgeAfter = 500 * time.Millisecond

// TrafficHedgeScenarioNames is the ablation's scenario subset: the two
// timelines where a replica stays alive but slow — exactly the failure
// mode hedging is for. (Dead-replica scenarios are uninteresting here:
// the request fails fast and the session migrates with or without a
// hedge.)
var TrafficHedgeScenarioNames = []string{"limping-leader", "gray-node"}

// TrafficHedgeMatrix runs the hedging ablation: each slow-replica
// scenario on every scheme, once un-hedged and once with hedging at
// TrafficHedgeAfter, in adjacent rows. Cell keys carry the variant suffix
// so seeds and diffs never collide with the main matrix.
func TrafficHedgeMatrix(o TrafficOptions) []TrafficResult {
	if len(o.Scenarios) == 0 {
		o.Scenarios = TrafficHedgeScenarioNames
	}
	return trafficMatrix("traffic-hedge", o,
		matrixVariant{"+unhedged", 0}, matrixVariant{"+hedged", TrafficHedgeAfter})
}

// trafficHedgeTable is the ablation table: the standard user-level columns
// plus the hedge counters that price HedgeAfter — how many duplicate legs
// were sent and how many resolved the request.
var trafficHedgeTable = trafficTable{
	title:         "# Traffic hedging ablation: slow-replica timelines, hedged vs un-hedged\n",
	scenarioWidth: 24,
	cols: append([]trafficColumn{
		colRequests, colOK, colTimeout, colUnavail, colMigr,
		{"hedged", 7, func(t *metrics.TrafficStats) any { return t.HedgedRequests }},
		{"wins", 6, func(t *metrics.TrafficStats) any { return t.HedgeWins }},
	}, colReqTail...),
}
