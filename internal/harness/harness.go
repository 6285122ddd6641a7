package harness

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/parsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

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
