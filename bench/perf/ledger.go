package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench/micro"
)

// LayerMetric declares one per-layer metric of the ledger.
type LayerMetric struct {
	Name, Unit, Better string
}

// PerLayer is every per-layer metric, in report order. Every traced run
// emits all of them; a layer the workload bypasses reports 0, which is how
// the bypass is confirmed. Sources: count = public counters after the traced
// region, span = the traced region, diff = two runs of one region differing
// in one switch, micro = bench/micro.
var PerLayer = []LayerMetric{
	{"sim.events", "count", "lower"},
	{"sim.self_ns_per_event", "ns", "lower"},
	{"sim.schedule_fire_ns", "ns", "lower"},
	{"sim.schedule_fire_allocs", "count", "lower"},

	{"netsim.pkts_sent", "count", "lower"},
	{"netsim.pkts_recv", "count", "lower"},
	{"netsim.mcast_copies", "count", "lower"},
	{"netsim.bytes_recv", "count", "lower"},
	{"netsim.dropped", "count", "lower"},
	{"netsim.send_ns_per_pkt", "ns", "lower"},
	{"netsim.mcast20_ns_per_copy", "ns", "lower"},
	{"netsim.mcast400_ns_per_copy", "ns", "lower"},

	{"wire.encode_heartbeat_ns", "ns", "lower"},
	{"wire.decode_heartbeat_ns", "ns", "lower"},
	{"wire.decode_update_ns", "ns", "lower"},
	{"wire.decode_directory1000_ns", "ns", "lower"},
	{"wire.decode_directory1000_allocs", "count", "lower"},
	{"wire.encode_gossip400_ns", "ns", "lower"},
	{"wire.decode_gossip400_ns", "ns", "lower"},
	{"wire.decode_gossip400_allocs", "count", "lower"},

	{"core.receive_ns_per_pkt", "ns", "lower"},
	{"core.heartbeats_recv", "count", "lower"},
	{"core.updates_applied", "count", "lower"},
	{"core.updates_dup", "count", "lower"},
	{"core.useful_update_ratio", "ratio", "higher"},
	{"core.syncs_requested", "count", "lower"},
	{"core.elections", "count", "lower"},
	{"core.bootstraps_served", "count", "lower"},
	{"core.receive_heartbeat_ns", "ns", "lower"},
	{"core.receive_update_ns", "ns", "lower"},

	{"alltoall.receive_ns_per_pkt", "ns", "lower"},
	{"alltoall.receive_heartbeat_ns", "ns", "lower"},
	{"gossip.receive_gossip400_ns", "ns", "lower"},
	{"rapid.receive_beat_ns", "ns", "lower"},
	{"alltoall.cells_s", "s", "lower"},
	{"gossip.cells_s", "s", "lower"},
	{"core.cells_s", "s", "lower"},
	{"core.adaptive_cells_s", "s", "lower"},
	{"proxy.cells_s", "s", "lower"},
	{"rapid.cells_s", "s", "lower"},
	{"rapid.dc_cells_s", "s", "lower"},

	{"membership.upsert_ns", "ns", "lower"},
	{"membership.lookup_ns", "ns", "lower"},
	{"membership.peak_dir", "count", "lower"},

	{"invariant.checks", "count", "higher"},
	{"invariant.violations", "count", "lower"},
	{"invariant.cost_share", "ratio", "lower"},

	{"traffic.requests", "count", "higher"},
	{"traffic.ok", "count", "higher"},
	{"traffic.misrouted", "count", "lower"},
	{"traffic.migrations", "count", "lower"},
	{"traffic.req_p50_ms", "ms", "lower"},
	{"traffic.req_p99_ms", "ms", "lower"},
	{"traffic.mig_p50_ms", "ms", "lower"},
	{"traffic.cost_share", "ratio", "lower"},
	{"service.dispatch_ns_per_pkt", "ns", "lower"},

	{"parsim.lps", "count", "higher"},
	{"parsim.overhead_x", "x", "lower"},

	{"topology.clustered1000_ms", "ms", "lower"},
	{"harness.newcluster1000_ms", "ms", "lower"},
	{"harness.newcluster24_us", "us", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.mallocs_per_event", "count", "lower"},
	{"runtime.speed_index", "ratio", "higher"},
	{"trace.overhead_x", "x", "lower"},
}

// ledger collects the per-layer metrics of one traced run.
type ledger struct {
	vals map[string]float64
}

func newLedger() *ledger { return &ledger{vals: make(map[string]float64)} }

// set records a metric; the name must be declared in PerLayer.
func (l *ledger) set(name string, v float64) {
	for _, m := range PerLayer {
		if m.Name == name {
			l.vals[name] = v
			return
		}
	}
	panic("perf: undeclared per-layer metric " + name)
}

// metrics lists every declared metric, unset ones at 0.
func (l *ledger) metrics() []Metric {
	out := make([]Metric, len(PerLayer))
	for i, m := range PerLayer {
		out[i] = Metric{m.Name, l.vals[m.Name], m.Unit}
	}
	return out
}

// hostCounts records the runtime layer: what the region cost in collector
// work, tying alloc_mb to wall_s.
func (l *ledger) hostCounts(c hostCost, events uint64) {
	l.set("runtime.gc_cycles", float64(c.gcCycles))
	l.set("runtime.gc_cpu_share", c.gcCPUShare)
	// Span and microbenchmark times are as the clock read them; this is how
	// fast the box was meanwhile (speed.go), for whoever compares two ledgers.
	l.set("runtime.speed_index", c.speed)
	if events > 0 {
		l.set("runtime.mallocs_per_event", float64(c.mallocs)/float64(events))
	}
}

// micros runs every microbenchmark into the ledger: the minimum of ten
// batches, or a single batch at smoke-test size.
func (l *ledger) micros(toy bool) {
	batches := micro.Batches
	if toy {
		batches = 1
	}
	for _, b := range micro.All {
		perOp, allocs := b.Run(batches)
		name := b.Name + "_" + b.Unit
		if b.Per > 1 {
			name = b.Name + "_ns_per_copy"
		}
		l.set(name, perOp)
		if b.Allocs {
			l.set(b.Name+"_allocs", allocs)
		}
	}
}

// spans records a traced region's span metrics: a layer's self time is its
// spans' duration minus what their child spans cover, normalised per event
// or per packet so a quarter-length traced region compares with a full one.
func (l *ledger) spans(t *tracer, events uint64) {
	_, simSelf := t.byName("sim.run")
	if events > 0 {
		l.set("sim.self_ns_per_event", float64(simSelf)/float64(events))
	}
	for span, metric := range map[string]string{
		"netsim.send":      "netsim.send_ns_per_pkt",
		"core.receive":     "core.receive_ns_per_pkt",
		"alltoall.receive": "alltoall.receive_ns_per_pkt",
		"service.dispatch": "service.dispatch_ns_per_pkt",
	} {
		if n, self := t.byName(span); n > 0 {
			l.set(metric, float64(self)/float64(n))
		}
	}
}

// TraceFile is what a traced run writes to trace-<workload>.json.
type TraceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Machine  Machine       `json:"machine"`
	Spans    []SpanSummary `json:"spans"`      // one row per (name, parent)
	Sample   []RawSpan     `json:"raw_sample"` // the first spans of the region, unaggregated
}

func writeTrace(p Params, workload string, spans []SpanSummary, sample []RawSpan) error {
	if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f := TraceFile{Workload: workload, Seed: p.Seed, Machine: p.Machine, Spans: spans, Sample: sample}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(p.OutDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
