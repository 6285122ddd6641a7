package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// runAdaptiveCell executes one (scheme, scenario) chaos cell with the
// default matrix shape and a fixed seed.
func runAdaptiveCell(t *testing.T, scheme Scheme, scenario string) (ChaosResult, map[string]int) {
	t.Helper()
	sc, err := chaos.Find(scenario, matrixGroups, matrixPerGroup)
	if err != nil {
		t.Fatal(err)
	}
	rep := RunScenario(scheme, sc, DefaultChaosOptions(), 1)
	viol := map[string]int{}
	for _, inv := range rep.Invariants {
		viol[inv.Name] = int(inv.Violations)
	}
	return ChaosResult{
		Scenario:          sc.Name,
		Scheme:            scheme.String(),
		Pass:              rep.TotalViolations() == 0,
		ViewChanges:       rep.ViewChanges,
		SpuriousEvictions: rep.SpuriousEvictions,
		Reformations:      rep.Reformations,
		Converged:         rep.Converged,
		ConvergedIn:       rep.ConvergedIn,
		Invariants:        rep.Invariants,
	}, viol
}

// TestAdaptiveHotLeaderHeadline pins the load-shedding half of the
// adaptive story: a level-0 leader buried under hot application load
// starves its relay duties, so the static tree loses upward completeness
// and FAILs, while the adaptive tree sheds leadership to the least-loaded
// member and PASSes with an auditor-verified convergence time.
func TestAdaptiveHotLeaderHeadline(t *testing.T) {
	static, sviol := runAdaptiveCell(t, Hierarchical, "hot-leader")
	if static.Pass {
		t.Errorf("static tree passed hot-leader; an overloaded leader should starve the relay path")
	}
	if sviol["completeness"] == 0 {
		t.Errorf("static hot-leader failure is not a completeness loss: %+v", static.Invariants)
	}

	adaptive, _ := runAdaptiveCell(t, HierarchicalAdaptive, "hot-leader")
	if !adaptive.Pass {
		t.Errorf("adaptive tree failed hot-leader: %+v", adaptive.Invariants)
	}
	if !adaptive.Converged {
		t.Errorf("adaptive tree never re-converged after hot-leader")
	}
}

// TestAdaptiveSkewGroupsHeadline pins the re-formation half: skewing one
// group's hosts onto another group's switch produces a 16-member scope,
// over the 12-member bound. The static tree cannot re-form and FAILs the
// reform-converge audit; the adaptive tree splits the oversized group onto
// a fresh channel and PASSes inside the closed-form deadline.
func TestAdaptiveSkewGroupsHeadline(t *testing.T) {
	static, sviol := runAdaptiveCell(t, Hierarchical, "skew-groups")
	if static.Pass {
		t.Errorf("static tree passed skew-groups; a 16-member group breaks the bound")
	}
	if sviol["reform-converge"] == 0 {
		t.Errorf("static skew-groups failure is not a reform-converge loss: %+v", static.Invariants)
	}
	if static.Converged {
		t.Errorf("static tree reported convergence on a permanently oversized group")
	}

	adaptive, _ := runAdaptiveCell(t, HierarchicalAdaptive, "skew-groups")
	if !adaptive.Pass {
		t.Errorf("adaptive tree failed skew-groups: %+v", adaptive.Invariants)
	}
	if !adaptive.Converged {
		t.Errorf("adaptive tree never re-converged after skew-groups")
	}
	if adaptive.Reformations == 0 {
		t.Errorf("adaptive tree converged without any re-formation rounds")
	}
	if adaptive.Converged && adaptive.ConvergedIn <= 0 {
		t.Errorf("implausible convergence time %v", adaptive.ConvergedIn)
	}
}

// TestAdaptiveMatrixColumns pins the rendered matrix surface: the reforms
// and converge columns exist, armed tree cells show a duration or "never",
// and unarmed cells show "-".
func TestAdaptiveMatrixColumns(t *testing.T) {
	o := DefaultChaosOptions()
	o.Scenarios = []string{"skew-groups"}
	out := RenderChaosMatrix(ChaosMatrix(o))
	if !strings.Contains(out, "reforms") || !strings.Contains(out, "converge") {
		t.Fatalf("matrix is missing the re-formation columns:\n%s", out)
	}
	if !strings.Contains(out, "hierarchical+adaptive") || !strings.Contains(out, "rapid+dc") {
		t.Fatalf("matrix is missing the new schemes:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "All-to-all") && !strings.Contains(line, " - ") {
			t.Errorf("unarmed cell should render '-' in the converge column: %q", line)
		}
	}
}

// adaptiveParsimRun executes the hot-leader timeline on an adaptive
// cluster through the parsim coordinator with the given worker count and
// returns the audited report. 3 groups of 8 give 3 LPs; the victim
// leader, its load reporters, and the shed handoff all live inside one
// LP, while the starved level-1 relays cross LP boundaries.
func adaptiveParsimRun(t *testing.T, lps int) metrics.RunReport {
	t.Helper()
	const seed = 7
	sc, err := chaos.Find("hot-leader", matrixGroups, matrixPerGroup)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(HierarchicalAdaptive, topology.Clustered(matrixGroups, matrixPerGroup), seed)
	coord := c.EnableParsim(seed, lps)
	c.StartAll()
	env := chaos.NewEnv(coord, c.Net, c.Top, c.Nodes)
	env.EngineFor = c.engineFor
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	n := c.Top.NumHosts()
	deadline := coord.Now() + sc.End() + ChaosSettle(HierarchicalAdaptive, n)
	auds := c.StartParAuditors(invariant.Options{
		Interval:    time.Second,
		Deadline:    deadline,
		PurgeBound:  ChaosPurgeBound(HierarchicalAdaptive, n),
		LeaderGrace: ChaosLeaderGrace,
		EventDriven: true,
		GroupBounds: [2]int{core.GroupMin, core.GroupMax},
		FaultEnd:    coord.Now() + sc.End(),
	})
	coord.Run(deadline + ChaosEnforce)
	rep := c.Observe()
	rep.Invariants = MergeAuditors(auds)
	rep.Converged, rep.ConvergedIn = invariant.MergeConvergence(auds)
	return rep
}

// TestAdaptiveParsimDeterminism pins that the adaptive machinery — load
// pushes, watermark shedding, handoffs — stays byte-identical under
// partitioned execution at any worker count, and that the shed still
// rescues the run (zero violations) when the overloaded leader's group is
// sharded away from the relays it starves.
func TestAdaptiveParsimDeterminism(t *testing.T) {
	r1 := adaptiveParsimRun(t, 1)
	r3 := adaptiveParsimRun(t, 3)
	b1, b3 := reportBytes(t, r1), reportBytes(t, r3)
	if b1 != b3 {
		t.Errorf("-lps 1 vs -lps 3 adaptive reports differ:\n lps1: %s\n lps3: %s", b1, b3)
	}
	if v := r1.TotalViolations(); v != 0 {
		t.Errorf("adaptive parsim hot-leader run violated invariants: %d\n%+v", v, r1.Invariants)
	}
	if !r1.Converged {
		t.Error("the sharded auditors do not report the hierarchy converged after the shed")
	}
	if r1.Events == 0 || r1.PktsDelivered == 0 {
		t.Fatalf("degenerate run: %+v", r1)
	}
}

// TestAdaptiveReformInvariantArming pins who the reform-converge audit
// applies to: armed tree cells perform checks and report convergence on a
// healthy run; cells whose scheme exposes no probe stay 0/0 inert and
// never claim convergence.
func TestAdaptiveReformInvariantArming(t *testing.T) {
	static, sviol := runAdaptiveCell(t, Hierarchical, "steady")
	if !static.Pass {
		t.Fatalf("static steady cell failed: %+v", static.Invariants)
	}
	if !static.Converged {
		t.Error("healthy static tree not reported converged")
	}
	checked := false
	for _, inv := range static.Invariants {
		if inv.Name == "reform-converge" && inv.Checks > 0 {
			checked = true
		}
	}
	if !checked || sviol["reform-converge"] != 0 {
		t.Errorf("armed steady cell: want clean reform-converge checks, got %+v", static.Invariants)
	}

	gossip, _ := runAdaptiveCell(t, Gossip, "steady")
	for _, inv := range gossip.Invariants {
		if inv.Name == "reform-converge" && (inv.Checks != 0 || inv.Violations != 0) {
			t.Errorf("unarmed gossip cell ran reform-converge checks: %+v", inv)
		}
	}
	if gossip.Converged {
		t.Error("probe-less scheme reported convergence")
	}
}

// TestAdaptiveHedgeAblation pins the hedging ablation's shape and point:
// on the gray-node timeline every scheme's hedged variant actually sends
// duplicate legs (and the un-hedged one none), and hedging must not cost
// correctness — hedged cells lose no more requests than they win back.
func TestAdaptiveHedgeAblation(t *testing.T) {
	o := DefaultTrafficOptions()
	o.sessions = 300
	o.Scenarios = []string{"gray-node"}
	byCell := map[string]metrics.TrafficStats{}
	for _, r := range TrafficHedgeMatrix(o) {
		byCell[r.Scenario+"/"+r.Scheme] = r.Traffic
	}
	if len(byCell) != 2*len(TrafficSchemes) {
		t.Fatalf("got %d cells, want %d", len(byCell), 2*len(TrafficSchemes))
	}
	for _, scheme := range TrafficSchemes {
		un := byCell["gray-node+unhedged/"+scheme.String()]
		he := byCell["gray-node+hedged/"+scheme.String()]
		if un.HedgedRequests != 0 {
			t.Errorf("%s un-hedged cell hedged %d requests", scheme, un.HedgedRequests)
		}
		if he.HedgedRequests == 0 {
			t.Errorf("%s hedged cell sent no duplicate legs under a gray replica", scheme)
		}
		if he.HedgeWins > he.HedgedRequests {
			t.Errorf("%s: hedge wins %d exceed hedged requests %d", scheme, he.HedgeWins, he.HedgedRequests)
		}
		if un.Requests == 0 || he.Requests == 0 {
			t.Errorf("%s: degenerate cell (un=%d he=%d requests)", scheme, un.Requests, he.Requests)
		}
	}
}
