package perf

import (
	"time"

	"repro/internal/harness"
	"repro/internal/membership"
	"repro/internal/metrics"
)

// killProbe measures, from outside the protocol, how long each injected
// kill takes to leave the other daemons' directories. It hooks every
// directory with AddObserver (directories survive daemon restarts, so the
// hooks do too) and timestamps the first EventLeave about a victim at each
// observer, in virtual time.
type killProbe struct {
	nodes []harness.Instance
	open  map[membership.NodeID]*kill
	kills []*kill
}

// kill is one injected daemon death, open from Stop until the restart.
type kill struct {
	victim membership.NodeID
	at     time.Duration
	// seen[i] is set once observer i dropped the victim; exempt[i] marks
	// observers that cannot be held to it: the victim itself, a daemon that
	// was down at any moment of the kill, or one that did not list the
	// victim when it died.
	seen, exempt []bool
	delays       []float64 // kill → removal at each observer, virtual ms
}

func newKillProbe(nodes []harness.Instance) *killProbe {
	p := &killProbe{nodes: nodes, open: make(map[membership.NodeID]*kill)}
	for i, n := range nodes {
		i := i
		n.Directory().AddObserver(func(e membership.Event) {
			if e.Type != membership.EventLeave {
				return
			}
			k := p.open[e.Node]
			if k == nil || k.seen[i] || k.exempt[i] {
				return
			}
			k.seen[i] = true
			k.delays = append(k.delays, float64(e.Time-k.at)/float64(time.Millisecond))
		})
	}
	return p
}

// killed is called right after daemon i was stopped at virtual time now.
func (p *killProbe) killed(i int, now time.Duration) {
	for _, k := range p.open {
		k.exempt[i] = true
	}
	victim := p.nodes[i].ID()
	k := &kill{victim: victim, at: now, seen: make([]bool, len(p.nodes)), exempt: make([]bool, len(p.nodes))}
	for j, n := range p.nodes {
		if j == i || !n.Running() || !n.Directory().Has(victim) {
			k.exempt[j] = true
		}
	}
	p.open[victim] = k
	p.kills = append(p.kills, k)
}

// restarting is called right before daemon i starts again: its kill closes,
// and whoever still lists it will never drop it.
func (p *killProbe) restarting(i int) { delete(p.open, p.nodes[i].ID()) }

// removals reports how many (kill, observer) removals were expected and
// how many were never seen.
func (p *killProbe) removals() (expected, missing uint64) {
	for _, k := range p.kills {
		for j := range k.seen {
			if k.exempt[j] {
				continue
			}
			expected++
			if !k.seen[j] {
				missing++
			}
		}
	}
	return expected, missing
}

// viewStats are the modelled-side detection figures, all in virtual
// milliseconds. Quantiles are nearest-rank (metrics.Percentile), so every
// reported figure is a delay that was actually measured.
type viewStats struct {
	kills     int
	samples   int     // (kill, observer) removals seen
	detect    float64 // median over kills of the first removal
	converge  float64 // median over kills of the last removal
	viewP95   float64 // p95 over every sample
	allDelays []float64
}

func (p *killProbe) stats() viewStats {
	var first, last, all []float64
	for _, k := range p.kills {
		if len(k.delays) == 0 {
			continue
		}
		first = append(first, metrics.Percentile(k.delays, 0))
		last = append(last, metrics.Percentile(k.delays, 100))
		all = append(all, k.delays...)
	}
	return viewStats{
		kills:     len(p.kills),
		samples:   len(all),
		detect:    metrics.Percentile(first, 50),
		converge:  metrics.Percentile(last, 50),
		viewP95:   metrics.Percentile(all, 95),
		allDelays: all,
	}
}
