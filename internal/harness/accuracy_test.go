package harness

import (
	"testing"
	"time"
)

func TestAccuracyUnderChurn(t *testing.T) {
	o := DefaultAccuracyOptions()
	o.groups, o.perGroup = 2, 6
	o.duration = time.Minute
	o.lossProbs = []float64{0, 0.05}
	fig := accuracy(o)

	for _, scheme := range []string{"All-to-all", "Hierarchical"} {
		for _, p := range o.lossProbs {
			cv := at(t, fig, scheme+" compl%", p)
			av := at(t, fig, scheme+" acc%", p)
			// Heartbeat schemes: only detection lag costs points; under
			// this churn schedule they stay well above 90%.
			if cv < 90 {
				t.Errorf("%s completeness at loss %.2f = %.1f%%, want > 90", scheme, p, cv)
			}
			if av < 90 {
				t.Errorf("%s accuracy at loss %.2f = %.1f%%, want > 90", scheme, p, av)
			}
		}
	}
	// Gossip's slower detection must cost it accuracy relative to the
	// hierarchical scheme at every loss level.
	for _, p := range o.lossProbs {
		g := at(t, fig, "Gossip acc%", p)
		h := at(t, fig, "Hierarchical acc%", p)
		if g > h {
			t.Errorf("at loss %.2f gossip acc %.1f%% > hierarchical %.1f%%; detection-lag ordering violated", p, g, h)
		}
	}
	// Everything still works at all: no catastrophic collapse.
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.Y < 50 {
				t.Errorf("series %q at %.2f dropped to %.1f%%", s.Name, pt.X, pt.Y)
			}
		}
	}
}
