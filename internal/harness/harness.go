package harness

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/parsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// comparedSchemes lists the paper's three compared schemes in presentation
// order; the §4 figures sweep exactly these. The federated stack and the
// rapid scheme are not points in those analyses — they join the comparison
// only in the chaos and traffic matrices.
var comparedSchemes = []Scheme{AllToAll, Gossip, Hierarchical}

// ChaosSchemes is the chaos matrix's column set: the three compared schemes,
// the federated hierarchical+proxy stack, rapid, the self-organizing
// adaptive hierarchy, and rapid with the DC-aware overlay.
var ChaosSchemes = []Scheme{AllToAll, Gossip, Hierarchical, HierarchicalProxy, Rapid, HierarchicalAdaptive, RapidDC}

// TrafficSchemes is the traffic matrix's column set. It deliberately stays
// at the pre-adaptive five: the traffic tables are a user-level comparison
// of the baseline schemes, and the measurement window is the slowest
// scheme's settle bound — adding the adaptive scheme would stretch every
// cell's window and perturb all committed numbers. The adaptive traffic
// story is told by the hedging ablation instead.
var TrafficSchemes = []Scheme{AllToAll, Gossip, Hierarchical, HierarchicalProxy, Rapid}

// Instance is the common surface of every scheme's protocol node (the
// builders in scheme.go place them behind it): the daemon chaos drives.
type Instance = chaos.Node

// HeartbeatWireTarget is the paper's measured average membership packet
// size: "The average packet size carrying the membership information of
// each node is measured as 228 bytes for all three schemes." Heartbeats
// are padded up to it so bandwidth numbers are comparable.
const HeartbeatWireTarget = 228

// Cluster is one simulated cluster running one scheme.
type Cluster struct {
	Scheme Scheme
	Eng    *sim.Engine
	Net    *netsim.Network
	Top    *topology.Topology
	Nodes  []Instance

	// Partitioned (parsim) execution state, nil for serial runs. Set by
	// EnableParsim; when present, node i schedules on Engs[Part.LPOf[i]]
	// and Coord drives the run instead of Eng.
	Coord *parsim.Coordinator
	Engs  []*sim.Engine
	Part  *topology.Partition

	tune func(cfg any) // see newCluster
}

// StartAll starts every node, each on the engine that owns it.
func (c *Cluster) StartAll() {
	for i, n := range c.Nodes {
		n.Start(c.engineFor(i))
	}
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.Eng.Run(c.Eng.Now() + d) }
