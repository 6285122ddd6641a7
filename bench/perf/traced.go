package perf

import "fmt"

// tracedShare is the part of --seconds the traced region (and each diff
// run beside it) covers: every span metric is normalised per event or per
// packet, so a quarter-length region gives the same figures.
const tracedShare = 0.25

// traced is the traced run of an own-cluster workload: the region once over
// the span-recording shim, once more without it (trace.overhead_x), then
// once per diff metric with a single switch flipped, then the
// microbenchmarks.
func (s simSpec) traced(p Params) Result {
	s.setups = 1 // setup_s is an end-to-end metric; here set-up only has to happen
	p.Seconds *= tracedShare
	tr := s.run(p, variant{trace: true})
	plain := s.run(p, variant{})
	res := tr.result()
	if tr.err != nil || plain.err != nil {
		res.Correct = false
		return res
	}
	if d := plain.digest(); d != res.Digest {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("FAILED CHECK: traced region digest %s, untraced %s", res.Digest, d))
	}

	l := newLedger()
	l.set("sim.events", float64(tr.events))
	l.set("netsim.pkts_sent", float64(tr.net.PktsSent))
	l.set("netsim.pkts_recv", float64(tr.net.PktsRecv))
	l.set("netsim.mcast_copies", float64(tr.net.MulticastCopies))
	l.set("netsim.bytes_recv", float64(tr.net.BytesRecv))
	l.set("netsim.dropped", float64(tr.net.Dropped))
	l.set("core.heartbeats_recv", float64(tr.core.heartbeatsRecv))
	l.set("core.updates_applied", float64(tr.core.updatesApplied))
	l.set("core.updates_dup", float64(tr.core.updatesDup))
	if all := tr.core.updatesApplied + tr.core.updatesDup; all > 0 {
		l.set("core.useful_update_ratio", float64(tr.core.updatesApplied)/float64(all))
	}
	l.set("core.syncs_requested", float64(tr.core.syncsRequested))
	l.set("core.elections", float64(tr.core.elections))
	l.set("core.bootstraps_served", float64(tr.core.bootstrapsServed))
	l.set("membership.peak_dir", float64(tr.peakDir))
	for _, inv := range tr.inv {
		l.vals["invariant.checks"] += float64(inv.Checks)
		l.vals["invariant.violations"] += float64(inv.Violations)
	}
	if t := tr.traffic; t != nil {
		l.set("traffic.requests", float64(t.Requests))
		l.set("traffic.ok", float64(t.OK))
		l.set("traffic.misrouted", float64(t.Misrouted))
		l.set("traffic.migrations", float64(t.Migrations))
		l.set("traffic.req_p50_ms", t.ReqP50.Seconds()*1e3)
		l.set("traffic.req_p99_ms", t.ReqP99.Seconds()*1e3)
		l.set("traffic.mig_p50_ms", t.MigP50.Seconds()*1e3)
	}
	l.spans(tr.tr, tr.events)
	// The untraced twin supplies the runtime layer, so collector figures
	// carry no shim either.
	l.hostCounts(plain.hostCost, plain.events)
	l.set("trace.overhead_x", tr.wallS/plain.wallS)

	// Diff metrics: the same region with one switch flipped.
	if s.partitioned {
		bare := s.run(p, variant{noAudit: true})
		serial := s.run(p, variant{noAudit: true, serial: true})
		l.set("invariant.cost_share", (plain.wallS-bare.wallS)/plain.wallS)
		l.set("parsim.lps", float64(plain.lps))
		l.set("parsim.overhead_x", bare.wallS/serial.wallS)
	}
	if s.sessions > 0 {
		idle := s.run(p, variant{noTraffic: true})
		l.set("traffic.cost_share", (plain.wallS-idle.wallS)/plain.wallS)
	}
	l.micros(p.Toy)
	res.Metrics = l.metrics()
	if err := writeTrace(p, s.name, tr.tr.summaries(), tr.tr.raw); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "FAILED CHECK: "+err.Error())
	}
	return res
}
