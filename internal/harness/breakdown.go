package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// bandwidthBreakdown dissects the hierarchical scheme's steady-state
// traffic by packet type at several cluster sizes: heartbeats dominate by
// design; the share of anti-entropy republication (directory snapshots)
// and update/bootstrap/sync traffic quantifies the cost of this
// implementation's robustness additions beyond the paper's event-driven
// core.
func bandwidthBreakdown(o Options) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Hierarchical bandwidth by packet type (KB/s received, steady state)",
		XLabel: "nodes",
		YLabel: "KB/s",
	}
	return curves(fig, []string{"heartbeats", "republication", "updates", "other"}, o.Sweep, o.Seed, o.Sizes, "breakdown/n=%d",
		func(n int, seed int64) ([]float64, metrics.RunReport) {
			c := NewCluster(Hierarchical, o.topologyFor(n), seed)
			bytesBy := map[wire.Type]int{}
			for h := 0; h < n; h++ {
				c.Net.Endpoint(topology.HostID(h)).SetFilter(func(pkt netsim.Packet) bool {
					if t, err := wire.TypeOf(pkt.Payload); err == nil {
						bytesBy[t] += pkt.WireSize()
					}
					return true
				})
			}
			c.StartAll()
			c.Run(warmUp)
			clear(bytesBy)
			c.Run(o.window)
			sec := o.window.Seconds()
			kb := func(t wire.Type) float64 { return float64(bytesBy[t]) / sec / 1024 }
			rest := 0.0
			for t, b := range bytesBy {
				if t != wire.THeartbeat && t != wire.TDirectory && t != wire.TUpdate {
					rest += float64(b)
				}
			}
			return []float64{kb(wire.THeartbeat), kb(wire.TDirectory), kb(wire.TUpdate), rest / sec / 1024}, c.Observe()
		})
}

// detectionDistribution runs many independent failure trials for one
// scheme and cluster size and reports detection-time percentiles —
// Figure 12 gives one draw per size; this characterizes the spread.
func detectionDistribution(scheme Scheme, o Options, n, trials int) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Failure detection time distribution (" + scheme.String() + ", seconds)",
		XLabel: "trial percentile",
		YLabel: "seconds",
	}
	index := make([]int, trials)
	for trial := range index {
		index[trial] = trial
	}
	name := func(trial int) string { return fmt.Sprintf("detect-dist/%s/n=%d/trial=%02d", scheme, n, trial) }
	detections := sweep(o.Sweep, o.Seed, index, name,
		func(trial int, seed int64) (float64, metrics.RunReport) {
			c := o.warm(scheme, n, seed)
			det, _, seen := killAndWatch(c, c.Nodes[o.victim(1+(trial*7)%(n-1), n)], o.failWait)
			return orNaN(det.Seconds(), seen > 0), c.Observe()
		})
	var samples []float64
	for _, d := range detections {
		if !math.IsNaN(d) {
			samples = append(samples, d)
		}
	}
	sort.Float64s(samples)
	s := fig.AddSeries("detection s")
	for _, p := range []float64{10, 50, 90, 99, 100} {
		s.Add(p, metrics.Percentile(samples, p))
	}
	return fig
}
