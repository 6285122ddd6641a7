// Package rapid implements a Rapid-style stable membership scheme (Suresh
// et al., "Stable and Consistent Membership at Scale with Rapid") as the
// simulator's fifth protocol, built for the gray-failure regimes where
// per-observer failure detectors flap: every membership change is a
// whole-configuration view change, filtered through multi-node cut
// detection so that no single confused observer can evict anyone.
//
// The pipeline, in the order a failure flows through it:
//
//   - K-ring monitoring overlay (rings.go): each configuration derives K
//     pseudorandom permutations of its member list from the configuration
//     identity alone; every member beats to the K peers observing it.
//   - Per-edge alerts: an observer that misses five consecutive beats
//     broadcasts a DOWN alert for the subject; hearing it again broadcasts
//     an UP retraction.
//   - Multi-node cut detection (cut.go): alerts aggregate into per-subject
//     accusation counts classified against the L/H watermarks — stable
//     (>= H, almost everywhere agreed) or unstable (in between).
//   - Arbitration: the lowest-ranked live member probes every accused
//     subject directly; a subject is confirmed dead only when it answers
//     no probe AND nobody anywhere has reported hearing it for upQuietFor
//     (the up-quiet veto — one-way-lossy paths keep generating UP
//     evidence, so healthy members survive even when most observers
//     accuse them). This bounds Rapid's "wait for the unstable region to
//     drain" rule under adversarial loss.
//   - Ratification: once the whole cut is resolved and steady for the
//     batch window, the proposer asks the old configuration to vote on the
//     eviction set. Any member that can personally contradict an eviction
//     (it IS the evictee, still hears it on a monitoring edge, or saw
//     alive-evidence within the quiet window) vetoes the round; the commit
//     additionally needs OK votes from a majority of the old configuration,
//     so a proposer cut off from the majority — a partition minority, the
//     deaf side of an asymmetric link — can never install anything.
//   - View change: the ratified configuration (members minus the cut, plus
//     batched joiners) broadcasts and installs atomically on every
//     receiver; rival commits for the same sequence converge on the lowest
//     proposer ID.
//
// K, L, H and every timer of the pipeline are constants (rapid.go), as Rapid
// ships one fixed {K, H, L}; Config holds the seeds, the DC map and the beat
// padding. EvictionBound and RejoinBound are the closed forms the harness
// audits against.
//
// Every receive path sits behind a freshness guard (beat counters, per-edge
// alert sequences, record high-water marks, probe tokens, view sequence
// rule), so the chaos layer's replayed, stale, or corrupted traffic is
// rejected and counted, never acted on. See docs/RAPID.md for the full
// walkthrough and the measured stability numbers.
package rapid
