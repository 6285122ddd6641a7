package harness

import (
	"testing"
	"time"
)

func TestBandwidthBreakdown(t *testing.T) {
	o := testOptions()
	o.Sizes = []int{40}
	fig := bandwidthBreakdown(o)
	hb := at(t, fig, "heartbeats", 40)
	snap := at(t, fig, "republication", 40)
	upd := at(t, fig, "updates", 40)
	if hb <= 0 {
		t.Fatal("no heartbeat traffic measured")
	}
	// Heartbeats dominate; the anti-entropy additions stay a minority
	// share — the quantified claim in EXPERIMENTS.md.
	if snap > hb/2 {
		t.Errorf("republication %.1f KB/s exceeds half of heartbeats %.1f KB/s", snap, hb)
	}
	// Steady state: essentially no update traffic without churn.
	if upd > hb/10 {
		t.Errorf("steady-state update traffic %.1f KB/s implausibly high (hb %.1f)", upd, hb)
	}
}

func TestDetectionDistribution(t *testing.T) {
	o := testOptions()
	o.failWait = 30 * time.Second
	fig := detectionDistribution(Hierarchical, o, 20, 6)
	p50 := at(t, fig, "detection s", 50)
	p100 := at(t, fig, "detection s", 100)
	// All trials detect around MaxLoss seconds; the spread is below one
	// heartbeat period plus tracker granularity.
	if p50 < 4 || p50 > 6 {
		t.Errorf("median detection %.2fs, want ~5s", p50)
	}
	if p100 > 7 {
		t.Errorf("worst-case detection %.2fs, too spread", p100)
	}
	if p100 < p50 {
		t.Error("percentiles not monotone")
	}
}
