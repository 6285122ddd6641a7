package harness

import (
	"fmt"
	"sort"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// BandwidthBreakdown dissects the hierarchical scheme's steady-state
// traffic by packet type at several cluster sizes: heartbeats dominate by
// design; the share of anti-entropy republication (directory snapshots)
// and update/bootstrap/sync traffic quantifies the cost of this
// implementation's robustness additions beyond the paper's event-driven
// core.
func BandwidthBreakdown(o Options) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Hierarchical bandwidth by packet type (KB/s received, steady state)",
		XLabel: "nodes",
		YLabel: "KB/s",
	}
	hb := fig.AddSeries("heartbeats")
	snap := fig.AddSeries("republication")
	upd := fig.AddSeries("updates")
	other := fig.AddSeries("other")
	type cell struct{ hb, snap, upd, other float64 }
	results := make([]cell, len(o.Sizes))
	p := NewPool(o.Sweep, o.Seed)
	for ni, n := range o.Sizes {
		p.Go(fmt.Sprintf("breakdown/n=%d", n), func(seed int64) metrics.RunReport {
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
			c.Run(o.WarmUp)
			for k := range bytesBy {
				delete(bytesBy, k)
			}
			c.Run(o.Window)
			sec := o.Window.Seconds()
			kb := func(t wire.Type) float64 { return float64(bytesBy[t]) / sec / 1024 }
			rest := 0.0
			for t, b := range bytesBy {
				if t != wire.THeartbeat && t != wire.TDirectory && t != wire.TUpdate {
					rest += float64(b)
				}
			}
			results[ni] = cell{
				hb:    kb(wire.THeartbeat),
				snap:  kb(wire.TDirectory),
				upd:   kb(wire.TUpdate),
				other: rest / sec / 1024,
			}
			return c.Observe()
		})
	}
	p.Wait()
	for ni, n := range o.Sizes {
		hb.Add(float64(n), results[ni].hb)
		snap.Add(float64(n), results[ni].snap)
		upd.Add(float64(n), results[ni].upd)
		other.Add(float64(n), results[ni].other)
	}
	return fig
}

// DetectionDistribution runs many independent failure trials for one
// scheme and cluster size and reports detection-time percentiles —
// Figure 12 gives one draw per size; this characterizes the spread. The
// trials are independent runs and execute on o.Sweep's worker pool.
func DetectionDistribution(scheme Scheme, o Options, n, trials int) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Failure detection time distribution (" + scheme.String() + ", seconds)",
		XLabel: "trial percentile",
		YLabel: "seconds",
	}
	s := fig.AddSeries("detection s")
	type cell struct {
		d  float64
		ok bool
	}
	results := make([]cell, trials)
	pool := NewPool(o.Sweep, o.Seed)
	for trial := 0; trial < trials; trial++ {
		pool.Go(fmt.Sprintf("detect-dist/%s/n=%d/trial=%02d", scheme, n, trial), func(seed int64) metrics.RunReport {
			c := NewCluster(scheme, o.topologyFor(n), seed)
			if o.LossProb > 0 {
				c.Net.SetLossProbability(o.LossProb)
			}
			c.StartAll()
			c.Run(o.WarmUp)
			victimIdx := 1 + (trial*7)%(n-1)
			if victimIdx%o.PerGroup == 0 {
				victimIdx++
			}
			if victimIdx >= n {
				victimIdx = n - 1
			}
			victim := c.Nodes[victimIdx]
			rec := metrics.NewChangeRecorder(victim.ID(), membership.EventLeave, c.Eng.Now())
			for _, nd := range c.Nodes {
				if nd != victim {
					rec.Watch(nd.ID(), nd.Directory())
				}
			}
			victim.Stop()
			c.Run(o.FailWait)
			if d, ok := rec.DetectionTime(); ok {
				results[trial] = cell{d: d.Seconds(), ok: true}
			}
			return c.Observe()
		})
	}
	pool.Wait()
	var samples []float64
	for _, r := range results {
		if r.ok {
			samples = append(samples, r.d)
		}
	}
	sort.Float64s(samples)
	for _, p := range []float64{10, 50, 90, 99, 100} {
		s.Add(p, metrics.Percentile(samples, p))
	}
	return fig
}
