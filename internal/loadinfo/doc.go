// Package loadinfo implements the paper's dynamic load-information
// subsystem, layered above the membership protocol (#17 in DESIGN.md's
// system inventory, the §6.1 extension).
//
// The paper deliberately keeps fast-changing load metrics out of
// membership heartbeats: directories carry stable facts, while load is
// disseminated separately, on demand, only to nodes that recently asked.
// A Reporter on each server pushes wire.LoadReport samples (queue length
// via the load callback) to its current consumers every ReportInterval
// (250 ms), and forgets consumers that have not asked within the 5 s
// interest window (NoteConsumer); both are constants. A Cache on each
// client absorbs reports and ages them out after a TTL, so routing
// decisions (service.Runtime's least-loaded replica selection) never act
// on stale samples.
//
// Traffic therefore scales with the number of active client-server pairs
// rather than cluster size, and drops to zero when no one is asking.
package loadinfo
