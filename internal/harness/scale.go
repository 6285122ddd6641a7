package harness

// The scale scenario: one hierarchical cluster at N>=1000 under rolling
// churn, fully audited with the event-driven hooks and a deliberately
// coarse sampling interval. Its purpose is hunting quadratic costs — an
// O(N^2) audit pass or protocol loop that is invisible at the chaos
// matrix's 24-48 nodes dominates the wall time here. The recorded RunReport
// (BENCH_scale.json) is held byte for byte but wall time by
// .github/bench-contract.sh, so a change to its events, packets, peak
// directory or audit counts fails the gate.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// ScaleOptions shape the scale run.
type ScaleOptions struct {
	Seed   int64
	Groups int
	// perGroup is the group size and churn how many rolling kill+restart
	// cycles run, one group apart; same-package tests shrink them.
	perGroup, churn int
	// LPs is the parsim worker count (the -lps flag); 0 means 1. The scale
	// figures always execute partitioned — the LP decomposition is fixed by
	// the topology, and worker count never changes the report bytes — so
	// this only trades wall time.
	LPs   int
	Sweep Sweep
}

// DefaultScaleOptions: 50 groups of 20 (N=1000), 5 churn cycles. Five
// cycles already walk the kill/restart wave across a tenth of the groups;
// more cycles only stretch the (already dominant) steady-state heartbeat
// load without exercising new code paths.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{Seed: 42, Groups: 50, perGroup: 20, churn: 5}
}

// Scale4kOptions is the N=4000 variant — the cluster size the paper's
// Figure 2 sweep tops out at. Same rolling-churn shape as the N=1000 run.
func Scale4kOptions() ScaleOptions {
	return ScaleOptions{Seed: 42, Groups: 200, perGroup: 20, churn: 5}
}

// scaleScenario builds the churn timeline: every 5s another group's second
// member dies and restarts 2s later, striding one group per iteration.
func scaleScenario(o ScaleOptions) *chaos.Scenario {
	return &chaos.Scenario{
		Name:        "scale-churn",
		Description: fmt.Sprintf("rolling churn across %d groups at N=%d", o.churn, o.Groups*o.perGroup),
		Steps:       chaos.Steps("@20s repeat %d every 5s step %d {\n@0s kill 1\n@2s restart 1\n}", o.churn, o.perGroup),
	}
}

// ScaleChurn executes the scale run through the pool, which fills its Key,
// Seed and Wall like every other bench run's, and returns the audited
// report.
func ScaleChurn(o ScaleOptions) metrics.RunReport {
	if o.churn > o.Groups {
		panic("harness: churn cycles exceed groups")
	}
	pool := NewPool(o.Sweep, o.Seed)
	n := o.Groups * o.perGroup
	pool.Go(fmt.Sprintf("scale/churn/%s/n=%d", Hierarchical, n), func(seed int64) metrics.RunReport {
		c := NewCluster(Hierarchical, topology.Clustered(o.Groups, o.perGroup), seed)
		coord := c.EnableParsim(seed, o.LPs)
		c.StartAll()
		env := chaos.NewEnv(coord, c.Net, c.Top, c.Nodes)
		env.EngineFor = c.engineFor
		sc := scaleScenario(o)
		if err := sc.Install(env); err != nil {
			panic(err)
		}
		deadline := coord.Now() + sc.End() + ChaosSettle(Hierarchical, n)
		auds := c.StartParAuditors(invariant.Options{
			// Coarse sampling: at N=1000 a full sample is an O(N^2) pass, so
			// the exact violation timestamps come from the event hooks and
			// the sampler only backstops absence (which produces no events).
			Interval:    10 * time.Second,
			Deadline:    deadline,
			PurgeBound:  ChaosPurgeBound(Hierarchical, n),
			LeaderGrace: ChaosLeaderGrace,
			EventDriven: true,
		})
		coord.Run(deadline + 15*time.Second)
		r := c.Observe()
		r.Invariants = MergeAuditors(auds)
		return r
	})
	return pool.Wait()[0]
}

// RenderScale renders the deterministic slice of the scale report (wall
// time varies by machine and stays out of stdout).
func RenderScale(o ScaleOptions, r metrics.RunReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scale churn: N=%d hierarchical, %d rolling kill+restart cycles\n",
		o.Groups*o.perGroup, o.churn)
	verdict := "PASS"
	if r.TotalViolations() > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%-10s %-8s %12s %14s %12s %12s\n",
		"virtual", "verdict", "events", "pkts", "dropped", "peak-dir")
	fmt.Fprintf(&b, "%-10v %-8s %12d %14d %12d %12d\n",
		r.Virtual, verdict, r.Events, r.PktsDelivered, r.PktsDropped, r.PeakDirSize)
	for _, inv := range r.Invariants {
		fmt.Fprintf(&b, "  %-13s %d/%d\n", inv.Name, inv.Violations, inv.Checks)
	}
	return b.String()
}
