// Package alltoall implements the flat broadcast membership scheme the
// paper compares against (#7 in DESIGN.md's system inventory).
//
// Every node multicasts a full heartbeat to the whole cluster on one
// maximum-TTL channel once a second, and marks a peer dead after five
// silent intervals (deadAfter; both are the paper's §6.2 settings and are
// constants, Config holds the channel, TTL and padding). Detection is fast and
// the implementation is trivial, but per-node receive bandwidth grows
// linearly with cluster size — the scaling failure quantified in Figures
// 11-13 and Section 4's analytic model.
//
// The receive path is the scheme's whole cost — N-1 heartbeats per node per
// second — so it does two array loads where it used to hash: the replay
// guard is a membership.Table of membership.Mark owned by the node, the
// only per-peer record the scheme keeps (marks outlive the directory entry,
// so a replay of an expired member's traffic is rejected and counted, never
// readmitted; only a later beat or a restart is).
//
// The status tracker ticks twice per interval but sweeps the directory only
// when a sweep can find something. Directory.Expired returns the earliest
// deadline among the survivors; a refresh only moves a deadline later and
// an entry inserted after the sweep expires no sooner than deadAfter from
// then, so every tick before min(next, now+deadAfter) would find nothing
// and is skipped. The ticker itself is left alone, so a member is removed
// on exactly the tick an every-tick sweep removes it on.
//
// Node mirrors the surface of core.Node (ID, Directory, Start/Stop,
// RegisterService, UpdateValue) so the experiment harness can
// drive all three schemes through one Instance interface, and satisfies
// service.Member so the service and traffic layers run over it too.
package alltoall
