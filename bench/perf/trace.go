package perf

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// The traced run measures the layers from outside the program: spans open
// and close around the calls the benchmark itself makes or hands out —
// Engine.Run/Coordinator.Run, the delivery callback a daemon installs with
// SetHandler, and the Multicast/Unicast calls a daemon makes on its
// transport. Everything is single-threaded (workers=1), so one span stack
// serves the whole run.

const (
	maxSpanNames = 16
	rawSpanCap   = 10000 // bounded sample of raw spans kept for the trace file
)

type spanID int32

// spanAgg is the in-memory aggregate of one (name, parent) pair.
type spanAgg struct {
	count uint64
	total int64 // ns between begin and end
	self  int64 // total minus the part child spans cover
}

// RawSpan is one recorded span of the bounded sample.
type RawSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type frame struct {
	name     spanID
	agg      *spanAgg
	seq      uint64
	start    int64
	children int64
}

type tracer struct {
	names []string
	t0    time.Time
	stack []frame
	aggs  [(maxSpanNames + 1) * maxSpanNames]spanAgg // indexed (parent+1, name)
	seq   uint64
	raw   []RawSpan
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stack: make([]frame, 0, 8), raw: make([]RawSpan, 0, rawSpanCap)}
}

// id interns a span name.
func (t *tracer) id(name string) spanID {
	for i, n := range t.names {
		if n == name {
			return spanID(i)
		}
	}
	if len(t.names) == maxSpanNames {
		panic("perf: too many span names")
	}
	t.names = append(t.names, name)
	return spanID(len(t.names) - 1)
}

func (t *tracer) begin(name spanID) {
	parent := spanID(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].name
	}
	t.seq++
	t.stack = append(t.stack, frame{
		name:  name,
		agg:   &t.aggs[int(parent+1)*maxSpanNames+int(name)],
		seq:   t.seq,
		start: int64(time.Since(t.t0)),
	})
}

func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	f.agg.count++
	f.agg.total += d
	f.agg.self += d - f.children
	var parentSeq uint64
	if n > 0 {
		t.stack[n-1].children += d
		parentSeq = t.stack[n-1].seq
	}
	if len(t.raw) < rawSpanCap {
		t.raw = append(t.raw, RawSpan{ID: f.seq, Parent: parentSeq, Name: t.names[f.name], StartNS: f.start, EndNS: now})
	}
}

// SpanSummary is one (name, parent) aggregate as written to the trace file.
type SpanSummary struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"` // "" for a root span
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) summaries() []SpanSummary {
	var out []SpanSummary
	for p := -1; p < len(t.names); p++ {
		for n := range t.names {
			a := t.aggs[(p+1)*maxSpanNames+n]
			if a.count == 0 {
				continue
			}
			parent := ""
			if p >= 0 {
				parent = t.names[p]
			}
			out = append(out, SpanSummary{Name: t.names[n], Parent: parent, Count: a.count, TotalNS: a.total, SelfNS: a.self})
		}
	}
	return out
}

// byName folds a span's aggregates over every parent it ran under.
func (t *tracer) byName(name string) (count uint64, self int64) {
	for _, s := range t.summaries() {
		if s.Name == name {
			count += s.Count
			self += s.SelfNS
		}
	}
	return count, self
}

// reset drops everything recorded so far (the set-up phase's spans).
func (t *tracer) reset() {
	t.aggs = [len(t.aggs)]spanAgg{}
	t.raw = t.raw[:0]
	t.seq = 0
	t.t0 = time.Now()
}

// tracedTransport is the netsim.Transport a daemon is built over in a
// traced run. The untraced run hands the daemon the raw *netsim.Endpoint,
// so end-to-end numbers never cross this type.
type tracedTransport struct {
	*netsim.Endpoint
	tr         *tracer
	recv, send spanID
}

func (t *tracedTransport) SetHandler(h netsim.Handler) {
	t.Endpoint.SetHandler(func(pkt netsim.Packet) {
		t.tr.begin(t.recv)
		h(pkt)
		t.tr.end()
	})
}

func (t *tracedTransport) Multicast(ch netsim.ChannelID, ttl int, payload []byte) {
	t.tr.begin(t.send)
	t.Endpoint.Multicast(ch, ttl, payload)
	t.tr.end()
}

func (t *tracedTransport) Unicast(dst topology.HostID, payload []byte) bool {
	t.tr.begin(t.send)
	ok := t.Endpoint.Unicast(dst, payload)
	t.tr.end()
	return ok
}
