package harness

import (
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// The paper requires the membership service to be "complete, accurate and
// responsive" (§1). This experiment quantifies the first two under churn
// and packet loss: nodes are killed and restarted on a schedule while the
// cluster is sampled once per second, and every node's view is compared
// against ground truth (the set of actually running daemons).
//
//   - Completeness: of the running nodes, what fraction does a view
//     contain? (Misses = running nodes not yet discovered/re-discovered.)
//   - Accuracy: of the entries in a view, what fraction are really
//     running? (Ghosts = dead nodes not yet purged.)
//
// Both are averaged over all samples and observers. Detection lag counts
// against the scores by design — a slower protocol is a less accurate one
// while churn is in flight, which is exactly the paper's argument against
// gossip in system-area networks.

// AccuracyOptions parametrize the churn experiment.
type AccuracyOptions struct {
	Seed  int64
	Sweep Sweep // worker-pool fan-out and progress output

	// The cluster shape, the sampled portion after warm-up and the loss
	// sweep; same-package tests shrink them.
	groups, perGroup int
	duration         time.Duration
	lossProbs        []float64
}

// The churn schedule: after the warm-up, one kill per period, each victim
// down for accuracyDownFor.
const (
	accuracyWarmUp     = 20 * time.Second
	accuracyChurnEvery = 15 * time.Second
	accuracyDownFor    = 10 * time.Second
)

// DefaultAccuracyOptions: 3x10 nodes sampled for two minutes.
func DefaultAccuracyOptions() AccuracyOptions {
	return AccuracyOptions{
		Seed:      42,
		groups:    3,
		perGroup:  10,
		duration:  2 * time.Minute,
		lossProbs: []float64{0, 0.02, 0.05, 0.10},
	}
}

// accuracyRun measures one (scheme, loss) cell.
func accuracyRun(scheme Scheme, o AccuracyOptions, loss float64, seed int64) (completeness, accuracy float64, rep metrics.RunReport) {
	top := o.topology()
	c := NewCluster(scheme, top, seed)
	c.Net.SetLossProbability(loss)
	c.StartAll()
	c.Run(accuracyWarmUp)

	// Churn: every period, kill a random non-leader-ish node (avoid node 0
	// to keep at least one stable contact) and restart it accuracyDownFor
	// later.
	stopChurn := false
	var churn func()
	churn = func() {
		if stopChurn {
			return
		}
		idx := 1 + c.Eng.Rand().Intn(len(c.Nodes)-1)
		victim := c.Nodes[idx]
		if victim.Running() {
			victim.Stop()
			c.Eng.Schedule(accuracyDownFor, func() {
				if !victim.Running() {
					victim.Start(c.Eng)
				}
			})
		}
		c.Eng.Schedule(accuracyChurnEvery, churn)
	}
	c.Eng.Schedule(0, churn)

	var complSum, accSum float64
	samples := 0
	sample := func() {
		truth := map[membership.NodeID]bool{}
		running := 0
		for _, n := range c.Nodes {
			if n.Running() {
				truth[n.ID()] = true
				running++
			}
		}
		for _, n := range c.Nodes {
			if !n.Running() {
				continue
			}
			view := n.Directory().Nodes()
			present, ghosts := 0, 0
			for _, v := range view {
				if truth[v] {
					present++
				} else {
					ghosts++
				}
			}
			if running > 0 {
				complSum += float64(present) / float64(running)
			}
			if len(view) > 0 {
				accSum += float64(len(view)-ghosts) / float64(len(view))
			}
			samples++
		}
	}
	end := c.Eng.Now() + o.duration
	for c.Eng.Now() < end {
		c.Run(time.Second)
		sample()
	}
	stopChurn = true
	rep = c.Observe()
	if samples == 0 {
		return 0, 0, rep
	}
	return 100 * complSum / float64(samples), 100 * accSum / float64(samples), rep
}

func (o AccuracyOptions) topology() *topology.Topology {
	return topology.Clustered(o.groups, o.perGroup)
}

// accuracy produces two figures' worth of series in one: completeness%
// and accuracy% per scheme, versus injected loss probability.
func accuracy(o AccuracyOptions) *metrics.Figure {
	fig := &metrics.Figure{
		Title:  "Membership completeness/accuracy under churn (kill+restart cycle, % over all samples)",
		XLabel: "loss probability",
		YLabel: "percent",
	}
	return schemeCurves(fig, []string{" compl%", " acc%"}, o.Sweep, o.Seed, o.lossProbs, "accuracy/%s/loss=%g",
		func(scheme Scheme, loss float64, seed int64) ([]float64, metrics.RunReport) {
			compl, acc, rep := accuracyRun(scheme, o, loss, seed)
			return []float64{compl, acc}, rep
		})
}
