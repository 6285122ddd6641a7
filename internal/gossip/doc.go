// Package gossip implements the epidemic membership scheme the paper
// compares against (#8 in DESIGN.md's system inventory), after van
// Renesse's gossip-style failure detection service.
//
// Each round, every node unicasts its directory digest to Fanout peers
// chosen uniformly at random; receivers merge by heartbeat counter. A
// peer is declared failed after FailTimeoutFor(ExpectedSize) without
// progress: the timeout grows with cluster size at the fixed 0.1 % mistake
// probability — the O(log n) detection-time growth visible in Figure 12.
// The round period (1 Hz) and that probability are the paper's and are
// constants; Config holds what the figures vary (fanout, size, seeds,
// padding). Bandwidth per node is O(n) per round because
// digests carry the full membership, which Figure 11 measures.
//
// A round frames that view once: wire.AppendGossip writes it straight from
// the directory into the node's resident send buffer, which one
// Transport.UnicastAll sends to every target, and the receiver merges the
// decoded wire.GossipView in place through Directory.MergeRelayed, building a
// MemberInfo only for a member that is new or whose content changed
// (docs/WIRE.md §4; the benchmarks in this package hold a steady-state
// receive to one allocation and a round to none).
//
// Node mirrors the surface of core.Node (ID, Directory, Start/Stop,
// RegisterService, UpdateValue) so the experiment harness can
// drive all three schemes through one Instance interface, and satisfies
// service.Member so the service and traffic layers run over gossip too.
package gossip
