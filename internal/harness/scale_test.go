package harness

import (
	"os"
	"testing"

	"repro/internal/raceflag"
)

// TestScaleChurn1000 audits a 1000-node hierarchical cluster under rolling
// churn — the O(N^2)-hunting run. At ~100s of wall time it dominates every
// local `go test ./...`, so it only runs when TAMP_SCALE is set (CI sets it
// in a dedicated step); it also skips under -short and under -race (the
// detector multiplies its wall time well past CI budgets; the race step
// covers the same code at chaos matrix scale).
func TestScaleChurn1000(t *testing.T) {
	if os.Getenv("TAMP_SCALE") == "" {
		t.Skip("set TAMP_SCALE=1 to run the 1000-node scale test")
	}
	if testing.Short() {
		t.Skip("scale run skipped in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("scale run skipped under -race")
	}
	o := DefaultScaleOptions()
	rep := ScaleChurn(o)
	if n := o.Groups * o.perGroup; rep.PeakDirSize != n {
		t.Errorf("peak directory size %d, want %d (views never reached cluster size)", rep.PeakDirSize, n)
	}
	if rep.TotalViolations() != 0 {
		t.Errorf("scale churn violated invariants:\n%+v", rep.Invariants)
	}
	if rep.Events == 0 || rep.PktsDelivered == 0 {
		t.Errorf("implausible counters: %+v", rep)
	}
	// BENCH_scale.json's run of the same options carries the same counts.
	t.Logf("events %d, packets delivered %d, bytes delivered %d", rep.Events, rep.PktsDelivered, rep.BytesDelivered)
}
