// Package core implements the paper's topology-adaptive hierarchical
// membership protocol — the contribution under evaluation, and #6 in
// DESIGN.md's system inventory.
//
// Nodes self-organize into a multi-level tree of multicast groups using
// only IP TTL scoping: every node joins the level-0 (TTL 1) channel of its
// subnet; each group elects a leader (smallest reachable NodeID), and
// leaders join the next level up with a larger TTL, until one top-level
// group spans the cluster. Within a group every member multicasts periodic
// heartbeats; leaders relay membership changes up and down the tree as
// incremental updates, so bandwidth per node stays O(group size) rather
// than O(cluster size) as in the all-to-all scheme.
//
// The protocol machinery is split across files:
//
//   - node.go: Node lifecycle (Start/Stop/Leave), per-level state and
//     timers — heartbeat emission with piggybacked recent updates (the
//     paper's loss-recovery mechanism) and the per-level failure timeouts
//     (Config.DeadAfterLevel) — plus group join/leave, leader election,
//     and the public queries (IsLeader, GroupMembers, Leader, Levels).
//   - updates.go: originating, relaying, and applying incremental
//     membership updates, with duplicate suppression (markSeen) and the
//     Timeout Protocol rule that direct knowledge beats relayed knowledge.
//   - bootstrap.go: new-node bootstrap and full-directory synchronization
//     when piggyback recovery cannot fill a gap.
//   - config.go: Config — intervals, TTL/channel mapping and MaxLoss (the
//     paper's k parameter); the per-level timeout step is a constant.
//   - stats.go: per-node protocol counters used by the bandwidth
//     experiments.
//
// A Node speaks the internal/wire message formats over a netsim.Transport
// and maintains a membership.Directory; it is driven entirely by sim.Engine
// timers, so behaviour is deterministic per seed.
package core
