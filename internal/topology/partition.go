package topology

import (
	"sort"
	"time"
)

// This file derives the logical-process (LP) decomposition used by the
// conservative parallel simulator (internal/parsim). The partition is a pure
// function of the built topology — never of worker count or failure state —
// so a run partitions identically no matter how many goroutines execute it;
// that is the foundation of parsim's byte-identical determinism contract
// (docs/PARSIM.md).

// Level0Groups returns the partition of hosts into level-0 multicast groups:
// the sets of hosts mutually reachable with TTL 1 (same switch segment). Each
// group is sorted ascending; groups are ordered by their lowest host. This is
// the paper's innermost membership scope, and the parsim LP unit for
// single-DC topologies. It reflects the current failure state (it uses
// multicast scopes), so callers wanting the baseline partition must call it
// before injecting faults.
func (t *Topology) Level0Groups() [][]HostID {
	n := t.NumHosts()
	seen := make([]bool, n)
	var out [][]HostID
	for h := 0; h < n; h++ {
		if seen[h] {
			continue
		}
		g := []HostID{HostID(h)}
		seen[h] = true
		sc := t.MulticastScope(HostID(h), 1)
		for _, peer := range sc.Hosts {
			if !seen[peer] {
				g = append(g, peer)
				seen[peer] = true
			}
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	return out
}

// Partition is the LP decomposition of a topology: which LP owns each host,
// and the conservative lookahead — the minimum baseline latency any packet
// needs to cross from one LP to another. Failures only remove edges (paths
// only get longer), so the baseline minimum stays a valid lower bound for
// the whole run.
type Partition struct {
	// LPOf maps host -> owning LP index (dense, 0..NumLPs-1).
	LPOf []int
	// Hosts lists each LP's hosts ascending; LPs are ordered by lowest host
	// (per-DC partitions coincide with DC index order).
	Hosts [][]HostID
	// Lookahead is the minimum cross-LP host-to-host unicast latency over
	// the unfailed graph, or 0 when there is at most one LP (or the LPs are
	// disconnected) and windowed execution degenerates to serial.
	Lookahead time.Duration
	// ByDC records which rule produced the partition: one LP per data
	// center, or (single-DC) one LP per level-0 multicast group.
	ByDC bool
}

// NumLPs returns the number of logical processes.
func (p *Partition) NumLPs() int { return len(p.Hosts) }

// LPPartition derives the parsim partition: one LP per data center when the
// topology spans several, else one LP per level-0 multicast group. Call it
// on the freshly built topology, before any fault injection.
func (t *Topology) LPPartition() *Partition {
	n := t.NumHosts()
	p := &Partition{LPOf: make([]int, n)}
	if t.numDC > 1 {
		p.ByDC = true
		p.Hosts = make([][]HostID, t.numDC)
		for h := 0; h < n; h++ {
			dc := t.HostDC(HostID(h))
			p.LPOf[h] = dc
			p.Hosts[dc] = append(p.Hosts[dc], HostID(h))
		}
	} else {
		p.Hosts = t.Level0Groups()
		for lp, g := range p.Hosts {
			for _, h := range g {
				p.LPOf[h] = lp
			}
		}
	}
	if p.NumLPs() > 1 {
		p.Lookahead = t.minCrossLPLatency(p.LPOf, p.NumLPs())
	}
	return p
}

// HostComponents returns one connectivity label per host under the current
// failure set: two hosts can exchange unicast traffic (UnicastPath latency
// >= 0) iff their labels are equal and non-negative. A host whose device is
// failed gets -1. It is the invariant auditor's reachability: one flood fill
// over the device graph per topology epoch instead of N^2 path probes.
func (t *Topology) HostComponents() []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	comp := make([]int32, len(t.devices))
	for i := range comp {
		comp[i] = -1
	}
	var queue []DeviceID
	next := int32(0)
	for seed := range t.devices {
		if comp[seed] >= 0 || t.failed[DeviceID(seed)] {
			continue
		}
		label := next
		next++
		comp[seed] = label
		queue = append(queue[:0], DeviceID(seed))
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range t.adj[d] {
				if comp[e.to] >= 0 || !t.crosses(e, false) {
					continue
				}
				comp[e.to] = label
				queue = append(queue, e.to)
			}
		}
	}
	out := make([]int32, len(t.hosts))
	for h, dev := range t.hosts {
		out[h] = comp[dev]
	}
	return out
}

// minCrossLPLatency runs one multi-source Dijkstra per LP over the baseline
// (unfailed) device graph, WAN links included, stopping at the first settled
// host outside the source LP — pops come off the heap in ascending distance,
// so that first hit is the LP's minimum. Returns 0 if some LP can reach no
// other (disconnected), which disables windowed execution.
func (t *Topology) minCrossLPLatency(lpOf []int, numLP int) time.Duration {
	const inf = time.Duration(1<<62 - 1)
	best := inf
	dist := make([]time.Duration, len(t.devices))
	for lp := 0; lp < numLP; lp++ {
		for i := range dist {
			dist[i] = inf
		}
		var h pathHeap
		for hid, dev := range t.hosts {
			if lpOf[hid] == lp {
				dist[dev] = 0
				h.push(pathItem{dev: dev})
			}
		}
		found := false
		for len(h) > 0 {
			it := h.pop()
			if it.lat != dist[it.dev] {
				continue
			}
			if it.lat >= best {
				break // cannot improve the global minimum
			}
			if hid := t.devices[it.dev].Host; hid >= 0 && lpOf[hid] != lp {
				best = it.lat
				found = true
				break
			}
			for _, e := range t.adj[it.dev] {
				if nd := it.lat + e.latency; nd < dist[e.to] {
					dist[e.to] = nd
					h.push(pathItem{lat: nd, dev: e.to})
				}
			}
		}
		if !found && best == inf {
			return 0
		}
	}
	if best == inf {
		return 0
	}
	return best
}
