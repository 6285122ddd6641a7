// Package sim provides the deterministic discrete-event simulation engine
// every experiment in this repository runs on (#1 in DESIGN.md's system
// inventory).
//
// An Engine maintains a virtual clock, a priority queue of scheduled
// events ordered by (time, schedule order), and a seeded RNG. All protocol
// code runs single-threaded on top of one Engine instance, which makes
// every experiment exactly reproducible for a given seed: the same
// schedule replays identically, down to RNG draws and tie-breaks.
//
// Key types:
//
//   - Engine: the clock and event queue. NewEngine(seed) starts at time
//     zero; Schedule/ScheduleAt queue callbacks; Run(until) advances the
//     clock; Now, Steps, and Rand expose the clock, executed-event count,
//     and RNG. Steps counts logical events, not queue entries, and the
//     two differ for exactly one kind of callback: one that stands for k
//     events nothing could have fired between (k consecutive sequence
//     numbers at one instant — the copies of one multicast, which netsim
//     schedules as a run). It takes one queue entry and one sequence
//     number, fires once, and calls AddSteps(k-1): Steps moves by k, and
//     every event count a report or digest carries is what it was when
//     each copy was an event of its own.
//   - Timer: the cancellable handle on a scheduled event, three words
//     stamped with the event's generation so it is harmless once the event
//     has fired and its struct been recycled. Schedule returns it boxed
//     (*Timer) beside a func() callback; ScheduleCallTimer returns it by
//     value beside a Callback, so a pooled record that implements Fire can
//     be its own timeout and keep the handle in a field — the form the
//     service runtime's per-request timeouts and Ticker use, allocating
//     nothing per arm or cancel. ScheduleCall is the same without a handle.
//
// An Engine is not safe for concurrent use — parallelism is obtained
// across engine instances, never within one. The experiment harness's
// worker pool (internal/harness.Pool) runs one independent Engine per
// simulation run and fans the runs out over goroutines, which is how
// parameter sweeps use every core without giving up determinism.
package sim
