package harness

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/metrics"
)

// smallScale is a miniature of the scale figure — same churn shape, 24
// nodes — small enough to run many times while still crossing LPs, killing
// and restarting nodes, and merging sharded audits.
func smallScale(lps int) ScaleOptions {
	return ScaleOptions{Seed: 7, Groups: 6, perGroup: 4, churn: 3, LPs: lps}
}

// reportBytes canonicalizes a report for byte comparison: wall time is the
// one field allowed to differ between runs.
func reportBytes(t *testing.T, r metrics.RunReport) string {
	t.Helper()
	r.Wall = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParsimDeterminism is the parsim determinism contract: the same run at
// -lps 1, at -lps 4, and re-executed in the same process must produce
// byte-identical reports (modulo wall time) and identical rendered figures.
func TestParsimDeterminism(t *testing.T) {
	r1 := ScaleChurn(smallScale(1))
	r4 := ScaleChurn(smallScale(4))
	r1b := ScaleChurn(smallScale(1))
	// The report is the pool's, so it carries the run's key and seed.
	if r1.Key != "scale/churn/Hierarchical/n=24" || r1.Seed != DeriveSeed(7, r1.Key) {
		t.Errorf("report key %q seed %d, want the pool's scale/churn/Hierarchical/n=24 and its derived seed", r1.Key, r1.Seed)
	}

	b1, b4, b1b := reportBytes(t, r1), reportBytes(t, r4), reportBytes(t, r1b)
	if b1 != b4 {
		t.Errorf("-lps 1 vs -lps 4 reports differ:\n lps1: %s\n lps4: %s", b1, b4)
	}
	if b1 != b1b {
		t.Errorf("same-process rerun differs:\n first: %s\nsecond: %s", b1, b1b)
	}
	if s1, s4 := RenderScale(smallScale(1), r1), RenderScale(smallScale(4), r4); s1 != s4 {
		t.Errorf("rendered figures differ:\n%s\nvs\n%s", s1, s4)
	}
	if r1.Events == 0 || r1.PktsDelivered == 0 {
		t.Fatalf("degenerate run: %+v", r1)
	}
	if v := r1.TotalViolations(); v != 0 {
		t.Errorf("small scale run violated invariants: %d", v)
	}
}

// TestParsimSchedulingStress perturbs the goroutine schedule — every worker
// count from 2 to 4, several repetitions, under varying GOMAXPROCS — and
// demands the report bytes never move. Run with -race this doubles as the
// data-race hunt over the window/boundary protocol.
func TestParsimSchedulingStress(t *testing.T) {
	want := reportBytes(t, ScaleChurn(smallScale(1)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for lps := 2; lps <= 4; lps++ {
			if got := reportBytes(t, ScaleChurn(smallScale(lps))); got != want {
				t.Fatalf("procs=%d lps=%d diverged:\n got: %s\nwant: %s", procs, lps, got, want)
			}
		}
	}
}
