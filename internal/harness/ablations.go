package harness

import (
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file contains ablation studies for the design choices DESIGN.md
// calls out: the update piggyback depth, the membership group size, the
// MaxLoss failure-declaration threshold, and the gossip fanout. Each builds
// its cluster from the scheme's own row and overrides the one knob it
// varies. Three of them have always run with unpadded packets (the group
// size ablation is padded like the figures), and their KB/s and packet
// columns are only comparable with themselves because of it.

// countPacketType installs counting filters on every endpoint that tally
// delivered packets of one wire type without dropping anything.
func countPacketType(net *netsim.Network, n int, t wire.Type) *int {
	count := new(int)
	for h := 0; h < n; h++ {
		net.Endpoint(topology.HostID(h)).SetFilter(func(pkt netsim.Packet) bool {
			if got, err := wire.TypeOf(pkt.Payload); err == nil && got == t {
				*count++
			}
			return true
		})
	}
	return count
}

// AblationPiggyback measures, under packet loss, how many full-directory
// synchronizations (SyncRequest polls) occur as the piggyback depth varies:
// deeper piggybacking recovers more consecutive losses without falling
// back to a full transfer (§3.1.2 uses depth 3).
func AblationPiggyback(sw Sweep, depths []int, lossProb float64, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: update piggyback depth vs full-sync fallbacks (5% loss, 30 membership changes)",
		XLabel: "piggyback depth",
		YLabel: "sync requests | update packets",
	}
	return curves(fig, []string{"sync reqs", "update pkts"}, sw, seed, depths, "abl-piggyback/depth=%d",
		func(depth int, seed int64) ([]float64, metrics.RunReport) {
			c := newCluster(Hierarchical, topology.Clustered(3, 5), seed, func(cfg any) {
				cfg.(*core.Config).PiggybackDepth = depth
				cfg.(*core.Config).HeartbeatPad = 0
			})
			c.StartAll()
			c.Run(20 * time.Second)
			c.Net.SetLossProbability(lossProb)
			syncCount := countPacketType(c.Net, len(c.Nodes), wire.TSyncRequest)
			// Generate a stream of membership changes that must propagate.
			for i := 0; i < 30; i++ {
				c.Nodes[7].(*core.Node).UpdateValue("step", string(rune('a'+i%26)))
				c.Run(time.Second)
			}
			c.Run(10 * time.Second)
			return []float64{float64(*syncCount), float64(c.Net.TotalStats().PktsSent)}, c.Observe()
		})
}

// bandwidthThenKill is the second half of the two bandwidth-vs-convergence
// ablations: 20 s of steady-state receive bandwidth (KB/s), then the last
// node is killed and the survivors get wait to all record it.
func bandwidthThenKill(c *Cluster, wait time.Duration) []float64 {
	c.Net.ResetStats()
	c.Run(20 * time.Second)
	kbps := float64(c.Net.TotalStats().BytesRecv) / 20 / 1024
	_, conv, seen := killAndWatch(c, c.Nodes[len(c.Nodes)-1], wait)
	return []float64{kbps, orNaN(conv.Seconds(), seen == len(c.Nodes)-1)}
}

// AblationGroupSize sweeps the membership group size at fixed cluster size,
// measuring aggregate bandwidth and view convergence after a failure: small
// groups mean a deeper tree (slower convergence, less traffic per group),
// large groups approach all-to-all.
func AblationGroupSize(sw Sweep, n int, groupSizes []int, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: group size at fixed cluster size (bandwidth vs convergence)",
		XLabel: "nodes per group",
		YLabel: "KB/s | seconds",
	}
	return curves(fig, []string{"KB/s", "convergence s"}, sw, seed, groupSizes, "abl-group/g=%d",
		func(g int, seed int64) ([]float64, metrics.RunReport) {
			c := NewCluster(Hierarchical, topology.Clustered(max(n/g, 1), g), seed)
			c.StartAll()
			c.Run(20 * time.Second)
			return bandwidthThenKill(c, 40*time.Second), c.Observe()
		})
}

// AblationGossipFanout sweeps the gossip fanout at fixed frequency:
// higher fanout multiplies bandwidth (each round sends the full view to
// more peers) while detection/convergence improve only until the fail
// timeout dominates — quantifying why the paper's comparison uses the
// canonical fanout of 1.
func AblationGossipFanout(sw Sweep, n int, fanouts []int, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: gossip fanout (bandwidth vs convergence)",
		XLabel: "fanout",
		YLabel: "KB/s | seconds",
	}
	return curves(fig, []string{"KB/s", "convergence s"}, sw, seed, fanouts, "abl-fanout/fanout=%d",
		func(fanout int, seed int64) ([]float64, metrics.RunReport) {
			c := newCluster(Gossip, topology.FlatLAN(n), seed, func(cfg any) {
				cfg.(*gossip.Config).Fanout = fanout
				cfg.(*gossip.Config).EntryPad = 0
			})
			c.StartAll()
			c.Run(40 * time.Second)
			return bandwidthThenKill(c, 3*time.Minute), c.Observe()
		})
}

// AblationMaxLoss sweeps the MaxLoss threshold under packet loss, measuring
// detection time (grows linearly with the threshold) and false failure
// declarations (shrink with it) — the accuracy/responsiveness trade-off
// behind the paper's choice of 5.
func AblationMaxLoss(sw Sweep, values []int, lossProb float64, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: MaxLoss threshold under 5% packet loss",
		XLabel: "MaxLoss",
		YLabel: "detection s | false leaves",
	}
	return curves(fig, []string{"detection s", "false leaves"}, sw, seed, values, "abl-maxloss/k=%d",
		func(k int, seed int64) ([]float64, metrics.RunReport) {
			c := newCluster(Hierarchical, topology.Clustered(2, 5), seed, func(cfg any) {
				cfg.(*core.Config).MaxLoss = k
				cfg.(*core.Config).HeartbeatPad = 0
			})
			c.Net.SetLossProbability(lossProb)
			c.StartAll()
			c.Run(20 * time.Second)
			// Count false leaves: any leave event for a live node during a
			// quiet period.
			falseLeaves := 0
			for _, nd := range c.Nodes {
				nd.Directory().AddObserver(func(e membership.Event) {
					if e.Type == membership.EventLeave {
						falseLeaves++
					}
				})
			}
			c.Run(60 * time.Second)
			quiet := float64(falseLeaves)
			// Then a real failure for the detection time.
			det, _, seen := killAndWatch(c, c.Nodes[len(c.Nodes)-1], 60*time.Second)
			return []float64{orNaN(det.Seconds(), seen > 0), quiet}, c.Observe()
		})
}
