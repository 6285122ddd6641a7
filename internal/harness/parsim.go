package harness

// Partitioned (parsim) execution of a cluster. EnableParsim splits a freshly
// built cluster along the topology's LP partition: one engine per LP, seeded
// from the run's stable key (DeriveSeed, so results never depend on worker
// count or host machine), the network in partitioned mode, and a coordinator
// that drives lookahead windows. The scale figures always run through this
// path — the -lps flag only picks how many goroutines execute a window, and
// any worker count produces byte-identical reports (docs/PARSIM.md).

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/parsim"
	"repro/internal/sim"
)

// EnableParsim switches the cluster into partitioned execution with the
// given worker count (clamped to [1, NumLPs]). Call it after NewCluster and
// before StartAll or any traffic; the serial engine c.Eng stops mattering
// for scheduling afterwards.
func (c *Cluster) EnableParsim(seed int64, workers int) *parsim.Coordinator {
	part := c.Top.LPPartition()
	nlp := part.NumLPs()
	if workers < 1 {
		workers = 1
	}
	if workers > nlp {
		workers = nlp
	}
	engs := make([]*sim.Engine, nlp)
	for lp := range engs {
		engs[lp] = sim.NewEngine(DeriveSeed(seed, fmt.Sprintf("lp/%d", lp)))
	}
	c.Net.EnablePartition(part.LPOf, engs, workers)
	coord := parsim.New(parsim.Config{
		Engines:   engs,
		Net:       c.Net,
		Lookahead: part.Lookahead,
		Workers:   workers,
	})
	c.Part, c.Engs, c.Coord = part, engs, coord
	return coord
}

// engineFor returns the engine node i lives on: its LP's engine when
// partitioned, the serial engine otherwise. It is the chaos.Env.EngineFor
// hook, so kill/restart actions start a node on the engine that owns it.
func (c *Cluster) engineFor(i int) *sim.Engine {
	if c.Engs == nil {
		return c.Eng
	}
	return c.Engs[c.Part.LPOf[i]]
}

// StartParAuditors arms one invariant auditor per LP, each observing only
// its LP's hosts (subjects stay global) on its LP's engine and labelling
// reachability itself. Results merge with invariant.MergeResults;
// per-observer audit state is sharded with the observers, so total memory
// matches one serial auditor.
func (c *Cluster) StartParAuditors(o invariant.Options) []*invariant.Auditor {
	nodes := auditNodes(c.Nodes)
	auds := make([]*invariant.Auditor, len(c.Engs))
	for lp := range auds {
		lo := o
		hosts := c.Part.Hosts[lp]
		obs := make([]int, len(hosts))
		for i, h := range hosts {
			obs[i] = int(h)
		}
		lo.Observers = obs
		auds[lp] = invariant.New(c.Engs[lp], c.Top, nodes, lo)
		auds[lp].Start()
	}
	return auds
}

// MergeAuditors stops every per-LP auditor and folds their verdicts.
func MergeAuditors(auds []*invariant.Auditor) []metrics.InvariantResult {
	parts := make([][]metrics.InvariantResult, len(auds))
	for i, a := range auds {
		a.Stop()
		parts[i] = a.Results()
	}
	return invariant.MergeResults(parts...)
}
