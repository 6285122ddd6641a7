package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Thin aliases keep the gossip ablation readable.
type gossipNode = gossip.Node

var gossipNew = gossip.NewNode

func gossipDefaultsFor(n int) gossip.Config {
	cfg := gossip.DefaultConfig()
	cfg.ExpectedSize = n
	cfg.Seeds = everyHost(n)
	return cfg
}

// This file contains ablation studies for the design choices DESIGN.md
// calls out: the update piggyback depth, the membership group size, and
// the MaxLoss failure-declaration threshold.

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

// hierCluster builds a hierarchical-scheme cluster with a custom config.
func hierCluster(top *topology.Topology, cfg core.Config, seed int64) (*sim.Engine, *netsim.Network, []*core.Node) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, top)
	var nodes []*core.Node
	for h := 0; h < top.NumHosts(); h++ {
		nodes = append(nodes, core.NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return eng, net, nodes
}

// AblationPiggyback measures, under packet loss, how many full-directory
// synchronizations (SyncRequest polls) occur as the piggyback depth varies:
// deeper piggybacking recovers more consecutive losses without falling
// back to a full transfer (§3.1.2 uses depth 3). The depth points run on
// sw's worker pool.
func AblationPiggyback(sw Sweep, depths []int, lossProb float64, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: update piggyback depth vs full-sync fallbacks (5% loss, 30 membership changes)",
		XLabel: "piggyback depth",
		YLabel: "sync requests | update packets",
	}
	syncs := fig.AddSeries("sync reqs")
	updates := fig.AddSeries("update pkts")
	type cell struct{ syncs, updates float64 }
	results := make([]cell, len(depths))
	p := NewPool(sw, seed)
	for di, depth := range depths {
		p.Go(fmt.Sprintf("abl-piggyback/depth=%d", depth), func(runSeed int64) metrics.RunReport {
			top := topology.Clustered(3, 5)
			cfg := core.DefaultConfig()
			cfg.MaxTTL = top.Diameter()
			cfg.PiggybackDepth = depth
			eng, net, nodes := hierCluster(top, cfg, runSeed)
			for _, n := range nodes {
				n.Start(eng)
			}
			eng.Run(20 * time.Second)
			net.SetLossProbability(lossProb)
			syncCount := countPacketType(net, top.NumHosts(), wire.TSyncRequest)
			// Generate a stream of membership changes that must propagate.
			for i := 0; i < 30; i++ {
				nodes[7].UpdateValue("step", string(rune('a'+i%26)))
				eng.Run(eng.Now() + time.Second)
			}
			eng.Run(eng.Now() + 10*time.Second)
			st := net.TotalStats()
			results[di] = cell{syncs: float64(*syncCount), updates: float64(st.PktsSent)}
			return observe(eng, net, nodes)
		})
	}
	p.Wait()
	for di, depth := range depths {
		syncs.Add(float64(depth), results[di].syncs)
		updates.Add(float64(depth), results[di].updates)
	}
	return fig
}

// AblationGroupSize sweeps the membership group size at fixed cluster size,
// measuring aggregate bandwidth and view convergence after a failure: small
// groups mean a deeper tree (slower convergence, less traffic per group),
// large groups approach all-to-all. The group-size points run on sw's
// worker pool.
func AblationGroupSize(sw Sweep, n int, groupSizes []int, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: group size at fixed cluster size (bandwidth vs convergence)",
		XLabel: "nodes per group",
		YLabel: "KB/s | seconds",
	}
	bw := fig.AddSeries("KB/s")
	conv := fig.AddSeries("convergence s")
	type cell struct {
		kbps, conv float64
		ok         bool
	}
	results := make([]cell, len(groupSizes))
	p := NewPool(sw, seed)
	for gi, g := range groupSizes {
		p.Go(fmt.Sprintf("abl-group/g=%d", g), func(runSeed int64) metrics.RunReport {
			groups := n / g
			if groups < 1 {
				groups = 1
			}
			top := topology.Clustered(groups, g)
			cfg := core.DefaultConfig()
			cfg.MaxTTL = top.Diameter()
			cfg.HeartbeatPad = padFor(HeartbeatWireTarget)
			eng, net, nodes := hierCluster(top, cfg, runSeed)
			for _, nd := range nodes {
				nd.Start(eng)
			}
			eng.Run(20 * time.Second)
			net.ResetStats()
			eng.Run(eng.Now() + 20*time.Second)
			results[gi].kbps = float64(net.TotalStats().BytesRecv) / 20 / 1024

			victim := nodes[len(nodes)-1]
			rec := metrics.NewChangeRecorder(victim.ID(), membership.EventLeave, eng.Now())
			for _, nd := range nodes {
				if nd != victim {
					rec.Watch(nd.ID(), nd.Directory())
				}
			}
			victim.Stop()
			eng.Run(eng.Now() + 40*time.Second)
			if c, ok := rec.ConvergenceTime(); ok && rec.Count() == len(nodes)-1 {
				results[gi].conv, results[gi].ok = c.Seconds(), true
			}
			return observe(eng, net, nodes)
		})
	}
	p.Wait()
	for gi, g := range groupSizes {
		bw.Add(float64(g), results[gi].kbps)
		if results[gi].ok {
			conv.Add(float64(g), results[gi].conv)
		}
	}
	return fig
}

// AblationGossipFanout sweeps the gossip fanout at fixed frequency:
// higher fanout multiplies bandwidth (each round sends the full view to
// more peers) while detection/convergence improve only until the fail
// timeout dominates — quantifying why the paper's comparison uses the
// canonical fanout of 1. The fanout points run on sw's worker pool.
func AblationGossipFanout(sw Sweep, n int, fanouts []int, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: gossip fanout (bandwidth vs convergence)",
		XLabel: "fanout",
		YLabel: "KB/s | seconds",
	}
	bw := fig.AddSeries("KB/s")
	conv := fig.AddSeries("convergence s")
	type cell struct {
		kbps, conv float64
		ok         bool
	}
	results := make([]cell, len(fanouts))
	p := NewPool(sw, seed)
	for fi, fo := range fanouts {
		p.Go(fmt.Sprintf("abl-fanout/fanout=%d", fo), func(runSeed int64) metrics.RunReport {
			top := topology.FlatLAN(n)
			eng := sim.NewEngine(runSeed)
			net := netsim.New(eng, top)
			cfg := gossipDefaultsFor(n)
			cfg.Fanout = fo
			var nodes []*gossipNode
			for h := 0; h < n; h++ {
				nodes = append(nodes, gossipNew(cfg, net.Endpoint(topology.HostID(h))))
			}
			for _, nd := range nodes {
				nd.Start(eng)
			}
			eng.Run(40 * time.Second)
			net.ResetStats()
			eng.Run(eng.Now() + 20*time.Second)
			results[fi].kbps = float64(net.TotalStats().BytesRecv) / 20 / 1024

			victim := nodes[n-1]
			rec := metrics.NewChangeRecorder(victim.ID(), membership.EventLeave, eng.Now())
			for _, nd := range nodes {
				if nd != victim {
					rec.Watch(nd.ID(), nd.Directory())
				}
			}
			victim.Stop()
			eng.Run(eng.Now() + 3*time.Minute)
			if c, ok := rec.ConvergenceTime(); ok && rec.Count() == n-1 {
				results[fi].conv, results[fi].ok = c.Seconds(), true
			}
			return observe(eng, net, nodes)
		})
	}
	p.Wait()
	for fi, fo := range fanouts {
		bw.Add(float64(fo), results[fi].kbps)
		if results[fi].ok {
			conv.Add(float64(fo), results[fi].conv)
		}
	}
	return fig
}

// AblationMaxLoss sweeps the MaxLoss threshold under packet loss, measuring
// detection time (grows linearly with the threshold) and false failure
// declarations (shrink with it) — the accuracy/responsiveness trade-off
// behind the paper's choice of 5. The threshold points run on sw's worker
// pool.
func AblationMaxLoss(sw Sweep, values []int, lossProb float64, seed int64) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Ablation: MaxLoss threshold under 5% packet loss",
		XLabel: "MaxLoss",
		YLabel: "detection s | false leaves",
	}
	det := fig.AddSeries("detection s")
	false_ := fig.AddSeries("false leaves")
	type cell struct {
		det         float64
		detOK       bool
		falseLeaves float64
	}
	results := make([]cell, len(values))
	p := NewPool(sw, seed)
	for ki, k := range values {
		p.Go(fmt.Sprintf("abl-maxloss/k=%d", k), func(runSeed int64) metrics.RunReport {
			top := topology.Clustered(2, 5)
			cfg := core.DefaultConfig()
			cfg.MaxTTL = top.Diameter()
			cfg.MaxLoss = k
			eng, net, nodes := hierCluster(top, cfg, runSeed)
			net.SetLossProbability(lossProb)
			for _, nd := range nodes {
				nd.Start(eng)
			}
			eng.Run(20 * time.Second)
			// Count false leaves: any leave event for a live node during a
			// quiet period.
			falseLeaves := 0
			for _, nd := range nodes {
				nd.Directory().SetObserver(func(e membership.Event) {
					if e.Type == membership.EventLeave {
						falseLeaves++
					}
				})
			}
			eng.Run(eng.Now() + 60*time.Second)
			for _, nd := range nodes {
				nd.Directory().SetObserver(nil)
			}
			// Then a real failure for the detection time.
			victim := nodes[len(nodes)-1]
			rec := metrics.NewChangeRecorder(victim.ID(), membership.EventLeave, eng.Now())
			for _, nd := range nodes {
				if nd != victim {
					rec.Watch(nd.ID(), nd.Directory())
				}
			}
			victim.Stop()
			eng.Run(eng.Now() + 60*time.Second)
			if d, ok := rec.DetectionTime(); ok {
				results[ki].det, results[ki].detOK = d.Seconds(), true
			}
			results[ki].falseLeaves = float64(falseLeaves)
			return observe(eng, net, nodes)
		})
	}
	p.Wait()
	for ki, k := range values {
		if results[ki].detOK {
			det.Add(float64(k), results[ki].det)
		}
		false_.Add(float64(k), results[ki].falseLeaves)
	}
	return fig
}
