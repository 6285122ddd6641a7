// Package tamp is the public API of the Topology-Adaptive Membership
// Protocol library, a full reproduction of Chu, Zhou and Yang, "An
// Efficient Topology-Adaptive Membership Protocol for Large-Scale Network
// Services" (IPDPS 2005).
//
// The library provides:
//
//   - MService / MClient, the membership service and client APIs modelled
//     on the paper's Figures 8-9: nodes publish services, partitions, and
//     key/value attributes; every node holds a complete yellow-page
//     directory queryable with regular expressions.
//   - A deterministic cluster simulator (topologies of hosts, layer-2
//     switches and layer-3 routers; TTL-scoped multicast; packet loss;
//     partitions) on which the protocol — and the paper's two baselines,
//     all-to-all heartbeating and gossip — run unchanged.
//   - The Neptune-like service invocation layer with random-polling load
//     balancing, and membership proxies for multi-data-center deployments.
//
// # Quick start
//
//	cl := tamp.NewCluster(tamp.Clustered(5, 20))
//	cl.MustService(7).RegisterService("Cache", "0-3")
//	cl.StartAll()
//	cl.Run(15 * time.Second)
//	machines, _ := cl.MustService(0).Client().LookupService("Cache", "2")
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package tamp

import (
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NodeID identifies a cluster node (the lowest-ID member of each group is
// elected leader, as in the paper).
type NodeID = membership.NodeID

// KV is one published attribute key/value pair.
type KV = membership.KV

// Topology is a physical cluster layout.
type Topology = topology.Topology

// HostID is a host index within a topology.
type HostID = topology.HostID

// Re-exported topology constructors.
var (
	// FlatLAN is n hosts on one switch: a single TTL-1 group.
	FlatLAN = topology.FlatLAN
	// Clustered is the paper's evaluation layout: groups of hosts behind
	// switches on one core router.
	Clustered = topology.Clustered
	// MultiDC is several Clustered data centers joined by WAN links that
	// multicast cannot cross.
	MultiDC = topology.MultiDC
	// Figure4 is the paper's non-transitive TTL example topology.
	Figure4 = topology.Figure4
)

// Machine describes one node returned by a lookup, with the attributes and
// service parameters it published (the paper's MachineList element).
type Machine struct {
	Node       NodeID
	Service    string
	Partitions []int32
	Params     []KV
	Attrs      []KV
}

// MachineList is the result of LookupService.
type MachineList []Machine

// Nodes returns the distinct node IDs in the list, in order of appearance.
func (ml MachineList) Nodes() []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, m := range ml {
		if !seen[m.Node] {
			seen[m.Node] = true
			out = append(out, m.Node)
		}
	}
	return out
}

// Sim owns one simulated cluster world: virtual clock, network, topology.
type Sim struct {
	eng *sim.Engine
	net *netsim.Network
	top *topology.Topology
}

// NewSim creates a simulation over a topology with the given RNG seed.
func NewSim(top *Topology, seed int64) *Sim {
	eng := sim.NewEngine(seed)
	return &Sim{eng: eng, net: netsim.New(eng, top), top: top}
}

// Run advances virtual time by d, executing all due protocol events.
func (s *Sim) Run(d time.Duration) { s.eng.Run(s.eng.Now() + d) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.eng.Now() }

// NetworkStats are aggregate traffic counters for the simulated network.
type NetworkStats = netsim.Stats

// NetworkStats returns traffic totals across all endpoints.
func (s *Sim) NetworkStats() NetworkStats { return s.net.TotalStats() }

// ResetNetworkStats zeroes the traffic counters (e.g. after warm-up).
func (s *Sim) ResetNetworkStats() { s.net.ResetStats() }
