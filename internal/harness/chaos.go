package harness

// The chaos matrix runs every library scenario against every scheme under
// the invariant auditor, through the same deterministic worker pool as the
// figures: cells are submitted in a fixed order, seeds derive from the
// sweep seed and the cell key, and the rendered table is byte-identical
// for any -workers count.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// ChaosOptions parametrize the scenario x scheme matrix.
type ChaosOptions struct {
	Seed int64
	// Scenarios restricts the matrix to the named library scenarios;
	// empty means all of them.
	Scenarios []string
	Sweep     Sweep
}

// DefaultChaosOptions runs every library scenario at seed 42.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{Seed: 42}
}

// matrixGroups groups of matrixPerGroup hosts is the cluster every chaos
// and traffic matrix cell runs on: 24 nodes, 48 for the multi-DC
// scenarios, which double the cluster across two data centers.
const matrixGroups, matrixPerGroup = 3, 8

// ChaosEnforce is how long the auditor keeps checking after the audit
// deadline (the post-quiescence window where completeness must hold).
const ChaosEnforce = 15 * time.Second

// ChaosLeaderGrace is how long the running set and topology must be stable
// before at-most-one-leader is enforced: election patience plus level
// grace plus a few heartbeat rounds.
const ChaosLeaderGrace = 15 * time.Second

// ChaosResult is one matrix cell's verdict, plus the view-stability
// counters behind it: every post-warmup membership transition, and the
// subset that evicted a member healthy and reachable at ground truth.
type ChaosResult struct {
	Scenario          string `json:"scenario"`
	Scheme            string `json:"scheme"`
	Pass              bool   `json:"pass"`
	ViewChanges       uint64 `json:"view_changes"`
	SpuriousEvictions uint64 `json:"spurious_evictions"`
	// Re-formation outcomes (docs/ADAPTIVE.md); populated only for cells
	// that arm the reform-converge audit, which ReformAudited records (it
	// is a property of the scheme column, so it stays out of the JSON).
	ReformAudited bool                      `json:"-"`
	Reformations  uint64                    `json:"reformations,omitempty"`
	Converged     bool                      `json:"converged,omitempty"`
	ConvergedIn   time.Duration             `json:"converged_in_ns,omitempty"`
	Invariants    []metrics.InvariantResult `json:"invariants"`
}

func (o ChaosOptions) scenarios() []*chaos.Scenario {
	if len(o.Scenarios) == 0 {
		return chaos.Library(matrixGroups, matrixPerGroup)
	}
	return findScenarios(o.Scenarios)
}

// findScenarios resolves library scenario names on the matrix shape,
// panicking on an unknown one.
func findScenarios(names []string) []*chaos.Scenario {
	var out []*chaos.Scenario
	for _, name := range names {
		sc, err := chaos.Find(name, matrixGroups, matrixPerGroup)
		if err != nil {
			panic(err)
		}
		out = append(out, sc)
	}
	return out
}

// RunScenario executes one (scenario, scheme) cell: build the cluster,
// start everything, install the fault timeline, audit until the deadline
// plus the enforcement window, and report the cluster counters with the
// auditor's verdicts attached.
func RunScenario(scheme Scheme, sc *chaos.Scenario, o ChaosOptions, seed int64) metrics.RunReport {
	c := NewCell(scheme, sc, matrixGroups, matrixPerGroup, seed)
	c.StartAll()
	if err := sc.Install(c.Env); err != nil {
		panic(err) // library scenarios are valid by construction
	}
	aud := c.StartAuditor()
	c.Eng.Run(c.Audit.Deadline + ChaosEnforce)
	aud.Stop()

	rep := c.Observe()
	rep.Invariants = aud.Results()
	rep.ViewChanges, rep.SpuriousEvictions = aud.Stability()
	if scheme.ReformAudited() {
		st, _ := c.CoreStats()
		rep.Reformations = st.Reformations
		rep.Converged, rep.ConvergedIn = aud.ReformConvergence()
	}
	return rep
}

// ChaosMatrix runs every (scenario, scheme) cell through the worker pool
// and returns verdicts in scenario-major, scheme-minor order.
func ChaosMatrix(o ChaosOptions) []ChaosResult {
	var out []ChaosResult
	runMatrix(o.Sweep, o.Seed, "chaos", o.scenarios(), []matrixVariant{{}}, ChaosSchemes,
		func(scheme Scheme, sc *chaos.Scenario, _ matrixVariant, seed int64) metrics.RunReport {
			return RunScenario(scheme, sc, o, seed)
		},
		func(scenario string, scheme Scheme, rep metrics.RunReport) {
			out = append(out, ChaosResult{
				Scenario:          scenario,
				Scheme:            scheme.String(),
				Pass:              rep.TotalViolations() == 0,
				ViewChanges:       rep.ViewChanges,
				SpuriousEvictions: rep.SpuriousEvictions,
				ReformAudited:     scheme.ReformAudited(),
				Reformations:      rep.Reformations,
				Converged:         rep.Converged,
				ConvergedIn:       rep.ConvergedIn,
				Invariants:        rep.Invariants,
			})
		})
	return out
}

// RenderChaosMatrix renders the verdict table: one row per cell, one
// violations/checks column per invariant. The output is deterministic and
// byte-identical for any worker count.
func RenderChaosMatrix(results []ChaosResult) string {
	var b strings.Builder
	b.WriteString("# Chaos matrix: per-invariant violations/checks\n")
	var invNames []string
	if len(results) > 0 {
		for _, inv := range results[0].Invariants {
			invNames = append(invNames, inv.Name)
		}
	}
	fmt.Fprintf(&b, "%-18s %-21s %-8s %6s %8s %7s %9s", "scenario", "scheme", "verdict", "views", "spurious", "reforms", "converge")
	for _, name := range invNames {
		fmt.Fprintf(&b, " %14s", name)
	}
	b.WriteByte('\n')
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		// The converge column reads "-" for unaudited cells, a duration for
		// cells that re-converged after the last fault, and "never" for
		// armed cells that did not.
		conv := "-"
		if r.Converged {
			conv = r.ConvergedIn.Round(time.Second).String()
		} else if r.ReformAudited {
			conv = "never"
		}
		fmt.Fprintf(&b, "%-18s %-21s %-8s %6d %8d %7d %9s", r.Scenario, r.Scheme, verdict, r.ViewChanges, r.SpuriousEvictions, r.Reformations, conv)
		for _, inv := range r.Invariants {
			fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d/%d", inv.Violations, inv.Checks))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
