package harness

import (
	"math"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Options tune experiment durations; the defaults match the paper where it
// specifies them and otherwise pick windows long enough for steady state.
type Options struct {
	Seed     int64
	PerGroup int     // nodes per network (20 in §6.2)
	Sizes    []int   // cluster sizes for Figures 11-13 (20..100)
	LossProb float64 // injected packet loss probability
	Sweep    Sweep   // worker-pool fan-out and progress output

	// window is the bandwidth measurement window and failWait the post-kill
	// observation window; same-package tests shorten them.
	window, failWait time.Duration
}

// warmUp runs every figure's cluster to steady state before measuring.
const warmUp = 20 * time.Second

// DefaultOptions mirrors §6.2: 20 nodes per network, sizes 20..100.
func DefaultOptions() Options {
	return Options{
		Seed:     42,
		PerGroup: 20,
		Sizes:    []int{20, 40, 60, 80, 100},
		window:   30 * time.Second,
		failWait: 60 * time.Second,
	}
}

func (o Options) topologyFor(n int) *topology.Topology {
	groups := n / o.PerGroup
	if groups < 1 {
		groups = 1
	}
	if groups == 1 {
		return topology.FlatLAN(n)
	}
	return topology.Clustered(groups, o.PerGroup)
}

// warm builds the scheme's n-node cluster under o's loss and runs it through
// the warm-up.
func (o Options) warm(scheme Scheme, n int, seed int64) *Cluster {
	c := NewCluster(scheme, o.topologyFor(n), seed)
	if o.LossProb > 0 {
		c.Net.SetLossProbability(o.LossProb)
	}
	c.StartAll()
	c.Run(warmUp)
	return c
}

// victim steers a kill away from group leaders under the hierarchical
// scheme (the lowest ID of each group) and keeps it inside the cluster.
func (o Options) victim(idx, n int) int {
	if idx%o.PerGroup == 0 {
		idx++
	}
	return min(idx, n-1)
}

// killAndWatch stops victim and runs the cluster for wait. det and conv are
// the first and the last survivor's recording of the leave, measured from
// the kill — the paper's failure detection and view convergence times; seen
// counts the survivors that recorded it (0: nobody detected it,
// len(c.Nodes)-1: every view converged).
func killAndWatch(c *Cluster, victim Instance, wait time.Duration) (det, conv time.Duration, seen int) {
	rec := metrics.NewChangeRecorder(victim.ID(), membership.EventLeave, c.Eng.Now())
	for _, nd := range c.Nodes {
		if nd != victim {
			rec.Watch(nd.ID(), nd.Directory())
		}
	}
	victim.Stop()
	c.Run(wait)
	det, _ = rec.DetectionTime()
	conv, _ = rec.ConvergenceTime()
	return det, conv, rec.Count()
}

// orNaN is y where ok, and otherwise the "no point" of curves.
func orNaN(y float64, ok bool) float64 {
	if ok {
		return y
	}
	return math.NaN()
}

// figure11 reproduces "Bandwidth consumption": aggregate membership
// bandwidth (MB/s, receive side) versus cluster size for the three
// schemes.
func figure11(o Options) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Figure 11: Bandwidth consumption (aggregate, MB/s)",
		XLabel: "nodes",
		YLabel: "MB/s received cluster-wide",
	}
	return schemeCurves(fig, []string{""}, o.Sweep, o.Seed, o.Sizes, "fig11/%s/n=%d",
		func(scheme Scheme, n int, seed int64) ([]float64, metrics.RunReport) {
			c := o.warm(scheme, n, seed)
			c.Net.ResetStats()
			c.Run(o.window)
			bytes := c.Net.TotalStats().BytesRecv
			return []float64{float64(bytes) / o.window.Seconds() / (1 << 20)}, c.Observe()
		})
}

// failureFigure is Figures 12 and 13: kill one mid-cluster node per scheme
// and size, and plot pick of its detection and convergence times wherever
// every survivor recorded the failure. The run key starts with the figure's
// own name, so the two figures draw different seeds.
func failureFigure(fig *metrics.Figure, o Options, name string, pick func(det, conv time.Duration) time.Duration) *metrics.Figure {
	return schemeCurves(fig, []string{""}, o.Sweep, o.Seed, o.Sizes, name+"/%s/n=%d",
		func(scheme Scheme, n int, seed int64) ([]float64, metrics.RunReport) {
			c := o.warm(scheme, n, seed)
			det, conv, seen := killAndWatch(c, c.Nodes[o.victim(n/2+1, n)], o.failWait)
			return []float64{orNaN(pick(det, conv).Seconds(), seen == n-1)}, c.Observe()
		})
}

// figure12 reproduces "Failure detection time" versus cluster size.
func figure12(o Options) *metrics.Figure {
	return failureFigure(&metrics.Figure{
		Title:  "Figure 12: Failure detection time",
		XLabel: "nodes",
		YLabel: "seconds",
	}, o, "fig12", func(det, _ time.Duration) time.Duration { return det })
}

// figure13 reproduces "View convergence time" versus cluster size.
func figure13(o Options) *metrics.Figure {
	return failureFigure(&metrics.Figure{
		Title:  "Figure 13: View convergence time",
		XLabel: "nodes",
		YLabel: "seconds",
	}, o, "fig13", func(_, conv time.Duration) time.Duration { return conv })
}

// figure2 reproduces "All-to-all approach is not scalable": per-node CPU
// load and received packet rate versus cluster size, following the paper's
// own method of emulating cluster growth by varying the received heartbeat
// rate. The CPU cost of one received heartbeat is measured by timing this
// implementation's actual receive path (decode + directory merge); the
// paper used 1024-byte heartbeats at 1 Hz.
func figure2(perPacket time.Duration, sizes []int) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Figure 2: All-to-all overhead on one node (1024B heartbeats at 1Hz)",
		XLabel: "nodes",
		YLabel: "cpu % | pkts/s | KB/s",
	}
	cpu := fig.AddSeries("CPU %")
	pkts := fig.AddSeries("pkts/s")
	bw := fig.AddSeries("KB/s")
	for _, n := range sizes {
		rate := float64(n - 1) // heartbeats received per second
		cpu.Add(float64(n), rate*perPacket.Seconds()*100)
		pkts.Add(float64(n), rate)
		bw.Add(float64(n), rate*1024/1024)
	}
	return fig
}

// fig2Heartbeat is the 1024-byte heartbeat Figure 2 receives. Its filler is
// real content, one attribute value, and not a declared pad: a pad is not on
// the wire (wire.Padding), so a receive would not pay for it.
func fig2Heartbeat() []byte {
	info := membership.MemberInfo{Node: 1, Incarnation: 1}
	info.SetAttr("cpu", "dual 1.4GHz P-III")
	hb := &wire.Heartbeat{Info: info, Backup: membership.NoNode}
	const key = "filler"
	fill := 1024 - netsim.UDPOverhead - len(wire.Encode(hb)) - (2 + len(key) + 2) // the attribute's own two length prefixes
	hb.Info.SetAttr(key, strings.Repeat("x", fill))
	return wire.Encode(hb)
}

// MeasureReceiveCost times the all-to-all receive path (wire decode plus
// directory merge) of a 1024-byte heartbeat over iters iterations and returns
// the per-packet cost. It runs in real time, not simulated time.
func MeasureReceiveCost(iters int) time.Duration {
	dir := membership.NewDirectory(0)
	payload := fig2Heartbeat()
	start := time.Now()
	for i := 0; i < iters; i++ {
		msg, err := wire.Decode(payload)
		if err != nil {
			panic(err)
		}
		h := msg.(*wire.Heartbeat)
		h.Info.Beat = uint64(i)
		dir.Upsert(h.Info, membership.OriginDirect, 0, membership.NoNode, time.Duration(i))
	}
	return time.Since(start) / time.Duration(iters)
}

// section4FixedBandwidth emits the paper's fixed-budget regime: with the
// bandwidth pinned, how slowly does each scheme detect as the cluster
// grows (the BDP ordering: hierarchical O(N) beats all-to-all O(N²) beats
// gossip O(N² log N)).
func section4FixedBandwidth(sizes []int) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Section 4: analytic detection time (s) at a fixed 1 MB/s budget",
		XLabel: "nodes",
		YLabel: "seconds | bytes",
	}
	aDet := fig.AddSeries("A2A det")
	gDet := fig.AddSeries("Gossip det")
	hDet := fig.AddSeries("Hier det")
	hBDP := fig.AddSeries("Hier BDP MB")
	aBDP := fig.AddSeries("A2A BDP MB")
	for _, n := range sizes {
		p := analysis.DefaultParams(n)
		a := analysis.AllToAllFixedBandwidth(p)
		g := analysis.GossipFixedBandwidth(p)
		h := analysis.HierarchicalFixedBandwidth(p)
		aDet.Add(float64(n), a.DetectionTime.Seconds())
		gDet.Add(float64(n), g.DetectionTime.Seconds())
		hDet.Add(float64(n), h.DetectionTime.Seconds())
		hBDP.Add(float64(n), h.BDP/(1<<20))
		aBDP.Add(float64(n), a.BDP/(1<<20))
	}
	return fig
}

// section4 emits the analytic scalability comparison (fixed-frequency and
// fixed-bandwidth regimes) alongside the closed-form BDP/BCP products.
func section4(sizes []int) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Section 4: analytic detection time (s) and bandwidth (MB/s) at fixed 1 Hz",
		XLabel: "nodes",
		YLabel: "mixed",
	}
	aDet := fig.AddSeries("A2A det")
	gDet := fig.AddSeries("Gossip det")
	hDet := fig.AddSeries("Hier det")
	aBw := fig.AddSeries("A2A MB/s")
	gBw := fig.AddSeries("Gossip MB/s")
	hBw := fig.AddSeries("Hier MB/s")
	for _, n := range sizes {
		p := analysis.DefaultParams(n)
		a := analysis.AllToAllFixedFrequency(p)
		g := analysis.GossipFixedFrequency(p)
		h := analysis.HierarchicalFixedFrequency(p)
		aDet.Add(float64(n), a.DetectionTime.Seconds())
		gDet.Add(float64(n), g.DetectionTime.Seconds())
		hDet.Add(float64(n), h.DetectionTime.Seconds())
		aBw.Add(float64(n), a.Bandwidth/(1<<20))
		gBw.Add(float64(n), g.Bandwidth/(1<<20))
		hBw.Add(float64(n), h.Bandwidth/(1<<20))
	}
	return fig
}
