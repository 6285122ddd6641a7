package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// at returns series value at x, failing the test when missing.
func at(t *testing.T, f *metrics.Figure, series string, x float64) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
	}
	t.Fatalf("series %q has no point at x=%v in %q", series, x, f.Title)
	return 0
}

func testOptions() Options {
	o := DefaultOptions()
	o.PerGroup = 10
	o.Sizes = []int{20, 40, 60}
	o.window = 20 * time.Second
	o.failWait = 40 * time.Second
	return o
}

// TestFigure11Reproduction checks the bandwidth comparison's shape: the
// hierarchical scheme uses the least bandwidth at scale and grows
// near-linearly, while all-to-all and gossip grow quadratically.
func TestFigure11Reproduction(t *testing.T) {
	fig := Figure11(testOptions())
	n0, n1 := 20.0, 60.0

	a2aSmall, a2aBig := at(t, fig, "All-to-all", n0), at(t, fig, "All-to-all", n1)
	gSmall, gBig := at(t, fig, "Gossip", n0), at(t, fig, "Gossip", n1)
	hSmall, hBig := at(t, fig, "Hierarchical", n0), at(t, fig, "Hierarchical", n1)

	// Paper: at the largest size the hierarchical scheme consumes the
	// least; all-to-all and gossip are several times higher.
	if !(hBig < a2aBig && hBig < gBig) {
		t.Errorf("hierarchical not cheapest at N=60: hier=%.3f a2a=%.3f gossip=%.3f", hBig, a2aBig, gBig)
	}
	if a2aBig < 2.5*hBig {
		t.Errorf("all-to-all should be much more expensive: a2a=%.3f hier=%.3f", a2aBig, hBig)
	}
	// Growth: tripling N should roughly 9x the quadratic schemes but only
	// ~3-4x the hierarchical one.
	if g := a2aBig / a2aSmall; g < 6 || g > 12 {
		t.Errorf("all-to-all growth = %.1fx for 3x nodes, want ~9x", g)
	}
	if g := gBig / gSmall; g < 5 {
		t.Errorf("gossip growth = %.1fx for 3x nodes, want quadratic-ish", g)
	}
	if g := hBig / hSmall; g > 6 {
		t.Errorf("hierarchical growth = %.1fx for 3x nodes, want near-linear", g)
	}
}

// TestFigure12Reproduction checks detection-time shape: all-to-all and
// hierarchical are constant around MaxLoss seconds; gossip is slowest at
// every size and grows with N.
func TestFigure12Reproduction(t *testing.T) {
	fig := Figure12(testOptions())
	for _, n := range []float64{20, 40, 60} {
		a := at(t, fig, "All-to-all", n)
		h := at(t, fig, "Hierarchical", n)
		g := at(t, fig, "Gossip", n)
		if a < 4 || a > 7 {
			t.Errorf("N=%v: all-to-all detection %.2fs, want ~5s", n, a)
		}
		if h < 4 || h > 7 {
			t.Errorf("N=%v: hierarchical detection %.2fs, want ~5s", n, h)
		}
		if g <= a || g <= h {
			t.Errorf("N=%v: gossip detection %.2fs should be slowest (a2a %.2f, hier %.2f)", n, g, a, h)
		}
	}
	if at(t, fig, "Gossip", 60) <= at(t, fig, "Gossip", 20) {
		t.Error("gossip detection should grow with N")
	}
}

// TestFigure13Reproduction checks convergence-time shape: hierarchical is
// close to all-to-all (within a couple of heartbeats), gossip is largest.
func TestFigure13Reproduction(t *testing.T) {
	fig := Figure13(testOptions())
	for _, n := range []float64{20, 40, 60} {
		a := at(t, fig, "All-to-all", n)
		h := at(t, fig, "Hierarchical", n)
		g := at(t, fig, "Gossip", n)
		if h > a+3 {
			t.Errorf("N=%v: hierarchical convergence %.2fs much worse than all-to-all %.2fs", n, h, a)
		}
		if g <= h || g <= a {
			t.Errorf("N=%v: gossip convergence %.2fs should be largest (a2a %.2f, hier %.2f)", n, g, a, h)
		}
	}
}

// TestKillAndWatchKeepsTheAuditorsHooks arms an event-driven auditor before
// killAndWatch adds its ChangeRecorder to the same directories: the
// auditor's hooks must still see the survivors drop the victim.
func TestKillAndWatchKeepsTheAuditorsHooks(t *testing.T) {
	c := NewCell(Hierarchical, nil, 2, 4, 1)
	aud := c.StartAuditor()
	c.StartAll()
	c.Run(20 * time.Second)
	_, _, seen := killAndWatch(c.Cluster, c.Nodes[5], 30*time.Second)
	if seen != len(c.Nodes)-1 {
		t.Fatalf("%d of %d survivors recorded the kill", seen, len(c.Nodes)-1)
	}
	for _, inv := range aud.Results() {
		// Only the event hooks check flap-freedom: once per leave.
		if inv.Name == "flap-freedom" && inv.Checks < uint64(seen) {
			t.Fatalf("the auditor counted %d leave events, fewer than the %d survivors that dropped the victim", inv.Checks, seen)
		}
	}
}

// TestFigure2Reproduction checks the all-to-all overhead curve is linear in
// cluster size and uses a measured per-packet cost.
func TestFigure2Reproduction(t *testing.T) {
	per := MeasureReceiveCost(2000)
	if per <= 0 || per > time.Millisecond {
		t.Fatalf("per-packet receive cost = %v; implausible", per)
	}
	fig := Figure2(per, []int{500, 1000, 2000, 4000})
	// The label is printed with %s: a doubled percent sign would show as one.
	if strings.Contains(fig.YLabel, "%%") || !strings.Contains(fig.Render(), "# y: cpu % | pkts/s | KB/s\n") {
		t.Errorf("y label %q renders with a literal %%%%", fig.YLabel)
	}
	cpu1, cpu4 := at(t, fig, "CPU %", 1000), at(t, fig, "CPU %", 4000)
	if cpu4 <= cpu1 {
		t.Fatal("CPU overhead should grow with cluster size")
	}
	ratio := cpu4 / cpu1
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("CPU growth ratio = %.2f, want ~4 (linear)", ratio)
	}
	if pk := at(t, fig, "pkts/s", 4000); pk != 3999 {
		t.Fatalf("pkts/s at 4000 nodes = %v", pk)
	}
	// 1024-byte heartbeats at 1 Hz from 3999 peers ≈ 4 MB/s, the paper's
	// "32% of a Fast Ethernet link".
	if kb := at(t, fig, "KB/s", 4000); kb < 3900 || kb > 4100 {
		t.Fatalf("KB/s at 4000 nodes = %v, want ~4000", kb)
	}
}

// TestExperimentDeterminism: identical seeds regenerate bit-identical
// figures — the property that makes every number in EXPERIMENTS.md
// reproducible.
func TestExperimentDeterminism(t *testing.T) {
	o := testOptions()
	o.Sizes = []int{20, 40}
	a := Figure11(o).Render()
	b := Figure11(o).Render()
	if a != b {
		t.Fatalf("Figure 11 not deterministic:\n%s\nvs\n%s", a, b)
	}
	fa := Figure14(42).Render()
	fb := Figure14(42).Render()
	if fa != fb {
		t.Fatal("Figure 14 not deterministic")
	}
	// Different seeds differ (the RNG actually reaches the protocols).
	o2 := o
	o2.Seed = 1234
	if Figure11(o2).Render() == a {
		t.Fatal("seed has no effect on Figure 11")
	}
}

// TestSection4Table sanity-checks the analytic table generation.
func TestSection4Table(t *testing.T) {
	fig := Section4([]int{100, 1000})
	if at(t, fig, "Hier MB/s", 1000) >= at(t, fig, "A2A MB/s", 1000) {
		t.Fatal("analytic hierarchical bandwidth should beat all-to-all")
	}
	if at(t, fig, "Gossip det", 1000) <= at(t, fig, "A2A det", 1000) {
		t.Fatal("analytic gossip detection should be slowest")
	}
}

// TestFigure14Reproduction checks the proxy failover timeline: fast local
// responses before the failure, elevated-but-successful responses served
// by the remote data center during it (≥ one WAN round trip), a throughput
// dip only around the detection window, and recovery afterwards.
func TestFigure14Reproduction(t *testing.T) {
	fig := Figure14(42)

	resp := func(s float64) float64 { return at(t, fig, "response ms", s) }
	thr := func(s float64) float64 { return at(t, fig, "throughput/s", s) }

	// Before the failure: local service, fast (well under one WAN RTT).
	for _, s := range []float64{5, 10, 15} {
		if r := resp(s); r <= 0 || r >= 45 {
			t.Errorf("t=%vs: pre-failure response %.1fms, want fast local", s, r)
		}
		if q := thr(s); q < 35 {
			t.Errorf("t=%vs: pre-failure throughput %.0f/s, want ~40", s, q)
		}
	}
	// During the failure, after detection (~5s): served remotely, response
	// above one WAN round trip (90ms), throughput restored.
	for _, s := range []float64{30, 35} {
		if r := resp(s); r < 90 {
			t.Errorf("t=%vs: failover response %.1fms, want >= 90ms (remote DC)", s, r)
		}
		if q := thr(s); q < 35 {
			t.Errorf("t=%vs: failover throughput %.0f/s, want restored", s, q)
		}
	}
	// Detection window: some loss of throughput is expected.
	dipped := false
	for s := 20.0; s < 28; s++ {
		if thr(s) < 35 {
			dipped = true
		}
	}
	if !dipped {
		t.Error("no throughput dip during failure detection; failure injection suspect")
	}
	// After recovery: local again.
	for _, s := range []float64{50, 55} {
		if r := resp(s); r <= 0 || r >= 45 {
			t.Errorf("t=%vs: post-recovery response %.1fms, want fast local", s, r)
		}
		if q := thr(s); q < 35 {
			t.Errorf("t=%vs: post-recovery throughput %.0f/s", s, q)
		}
	}
}
