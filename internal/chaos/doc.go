// Package chaos is the declarative fault-injection engine: a Scenario is a
// seeded, deterministic timeline of fault and heal actions (daemon kills,
// switch/router/link outages, loss and jitter ramps, node flapping,
// leader-targeted kills, correlated group outages, WAN degradation)
// scheduled on the simulation engine's virtual clock. Multi-DC scenarios
// pick their data-center count (Scenario.DCs) and per-DC proxy-group size
// (Scenario.ProxiesPerDC, the spec's `proxies K` directive), and can
// target proxy leaders directly (kill-proxy-leader). The fault vocabulary
// is the verb table in verbs.go; Usage prints it.
//
// Scenarios come from two places, both in the one text language: the
// built-in Library (and other Go callers, through Steps) and a text spec
// (ParseSpec — the format cmd/tampsim accepts via -scenario @file).
// Installing a scenario validates every action against the concrete cluster
// and schedules the timeline; the invariant auditor (internal/invariant)
// then checks the paper's membership guarantees while the script runs.
package chaos
