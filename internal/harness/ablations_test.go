package harness

import "testing"

func TestAblationPiggyback(t *testing.T) {
	fig := ablationPiggyback(Sweep{}, []int{0, 3, 6}, 0.05, 11)
	s0 := at(t, fig, "sync reqs", 0)
	s6 := at(t, fig, "sync reqs", 6)
	// Deeper piggybacking must not need more full syncs than none, and
	// with no piggybacking at all there should be some fallbacks under
	// sustained loss and churn.
	if s6 > s0 {
		t.Errorf("sync requests rose with depth: depth0=%v depth6=%v", s0, s6)
	}
	if s0 == 0 {
		t.Log("note: no syncs even at depth 0 (loss draw was kind); shape check skipped")
	}
}

func TestAblationGroupSize(t *testing.T) {
	fig := ablationGroupSize(Sweep{}, 40, []int{5, 10, 20, 40}, 13)
	// Group size 40 = one flat group = all-to-all: most bandwidth.
	small := at(t, fig, "KB/s", 5)
	flat := at(t, fig, "KB/s", 40)
	if flat <= small {
		t.Errorf("flat group should cost more bandwidth: g5=%.1f g40=%.1f", small, flat)
	}
	// All configurations converge within a sane window.
	for _, g := range []float64{5, 10, 20, 40} {
		c := at(t, fig, "convergence s", g)
		if c <= 0 || c > 15 {
			t.Errorf("g=%v convergence %.1fs implausible", g, c)
		}
	}
}

func TestAblationGossipFanout(t *testing.T) {
	fig := ablationGossipFanout(Sweep{}, 20, []int{1, 3}, 7)
	b1 := at(t, fig, "KB/s", 1)
	b3 := at(t, fig, "KB/s", 3)
	if b3 < 2*b1 {
		t.Errorf("fanout 3 bandwidth %.1f should be ~3x fanout 1 (%.1f)", b3, b1)
	}
	c1 := at(t, fig, "convergence s", 1)
	c3 := at(t, fig, "convergence s", 3)
	if c3 > c1 {
		t.Errorf("higher fanout should not converge slower: f1=%.1f f3=%.1f", c1, c3)
	}
}

func TestAblationMaxLoss(t *testing.T) {
	fig := ablationMaxLoss(Sweep{}, []int{2, 5, 8}, 0.05, 17)
	d2 := at(t, fig, "detection s", 2)
	d8 := at(t, fig, "detection s", 8)
	if d8 <= d2 {
		t.Errorf("detection should grow with MaxLoss: k2=%.1f k8=%.1f", d2, d8)
	}
	f2 := at(t, fig, "false leaves", 2)
	f8 := at(t, fig, "false leaves", 8)
	if f8 > f2 {
		t.Errorf("false leaves should shrink with MaxLoss: k2=%v k8=%v", f2, f8)
	}
}
