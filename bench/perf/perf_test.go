package perf

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// toyParams sizes a smoke run: long enough in virtual time for a few kills,
// also in the quarter-length traced region.
func toyParams(seed int64, trace bool, t *testing.T) Params {
	p := Params{Seed: seed, Seconds: 4, Trace: trace, Toy: true, OutDir: t.TempDir()}
	if trace {
		p.Seconds = 16
	}
	return p
}

func byName(t *testing.T, r Result) map[string]Metric {
	t.Helper()
	out := make(map[string]Metric)
	for _, m := range r.Metrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", r.Workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", r.Workload, m.Name, m.Value)
		}
		if _, dup := out[m.Name]; dup {
			t.Errorf("%s: metric %s reported twice", r.Workload, m.Name)
		}
		out[m.Name] = m
	}
	return out
}

// Every workload, at toy size: all eight end-to-end metrics, never zero;
// one seed simulates the same thing twice, another seed something else.
func TestEndToEndToy(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := w.Run(toyParams(1, false, t))
			b := w.Run(toyParams(1, false, t))
			c := w.Run(toyParams(2, false, t))
			for _, r := range []Result{a, b, c} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%q", r.Correct, r.Attempted, r.Failed, r.Notes)
				}
			}
			ma, mb := byName(t, a), byName(t, b)
			for _, e := range EndToEnd {
				m, ok := ma[e.Name]
				if !ok || m.Unit != e.Unit || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want unit %s and a positive value", e.Name, m, ok, e.Unit)
				}
				if strings.HasPrefix(e.Name, "sim_") && ma[e.Name].Value != mb[e.Name].Value {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", e.Name, ma[e.Name].Value, mb[e.Name].Value)
				}
			}
			if len(ma) != len(EndToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(ma), len(EndToEnd))
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("sim_digest of two runs of seed 1: %q vs %q", a.Digest, b.Digest)
			}
			if a.Digest == c.Digest {
				t.Errorf("sim_digest %q is the same for seeds 1 and 2", a.Digest)
			}
		})
	}
}

// The traced run emits every per-layer metric, writes the trace file, and
// shows each workload bypassing the layers it is said to bypass.
func TestTracedToy(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := toyParams(1, true, t)
			r := w.Run(p)
			if !r.Correct {
				t.Fatalf("not correct: %q", r.Notes)
			}
			m := byName(t, r)
			for _, l := range PerLayer {
				if got, ok := m[l.Name]; !ok || got.Unit != l.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", l.Name, got, ok, l.Unit)
				}
			}
			if len(m) != len(PerLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(m), len(PerLayer))
			}
			for _, name := range []string{"sim.events", "sim.schedule_fire_ns", "wire.decode_directory1000_ns", "runtime.mallocs_per_event"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m[name].Value)
				}
			}
			zero := map[string][]string{
				"flat-alltoall": {"core.heartbeats_recv", "core.updates_applied", "core.elections", "core.receive_ns_per_pkt", "invariant.checks", "traffic.requests"},
				"sessions":      {"invariant.checks", "alltoall.receive_ns_per_pkt", "parsim.lps"},
				"tree-churn":    {"traffic.requests", "alltoall.receive_ns_per_pkt"},
				"chaos-matrix":  {"traffic.requests", "core.receive_ns_per_pkt"},
			}
			for _, name := range zero[w.Name] {
				if m[name].Value != 0 {
					t.Errorf("%s = %v on a workload that bypasses it", name, m[name].Value)
				}
			}
			nonzero := map[string][]string{
				"flat-alltoall": {"alltoall.receive_ns_per_pkt", "netsim.send_ns_per_pkt", "sim.self_ns_per_event", "trace.overhead_x"},
				"sessions":      {"traffic.requests", "service.dispatch_ns_per_pkt", "core.receive_ns_per_pkt", "traffic.cost_share"},
				"tree-churn":    {"core.receive_ns_per_pkt", "core.updates_applied", "invariant.checks", "parsim.lps", "parsim.overhead_x"},
				"chaos-matrix":  {"rapid.cells_s", "proxy.cells_s", "invariant.checks"},
			}
			for _, name := range nonzero[w.Name] {
				if m[name].Value == 0 {
					t.Errorf("%s = 0 on the workload that exercises it", name)
				}
			}
			data, err := os.ReadFile(filepath.Join(p.OutDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var f TraceFile
			if err := json.Unmarshal(data, &f); err != nil || f.Workload != w.Name || len(f.Spans) == 0 {
				t.Errorf("trace file: workload %q, %d spans, err %v", f.Workload, len(f.Spans), err)
			}
		})
	}
}

// A correctness check that fails must fail the run: a cluster that cannot
// have converged after a one-millisecond warm-up is reported, not timed.
func TestFailedCheckFailsRun(t *testing.T) {
	s := flatAllToAll.toy()
	s.warmup = time.Millisecond
	r := s.runWorkload(toyParams(1, false, t))
	if r.Correct || len(r.Metrics) != 0 {
		t.Errorf("correct=%v with %d metrics after an impossible warm-up", r.Correct, len(r.Metrics))
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "FAILED CHECK") {
		t.Errorf("notes %q do not name the failed check", r.Notes)
	}
}

// A removal that is never seen is a failed operation.
func TestMissingRemovalCounts(t *testing.T) {
	s := flatAllToAll.toy()
	s.downFor = time.Second // the victim is back long before anyone can drop it
	r := s.runWorkload(toyParams(1, false, t))
	if r.Correct || r.Failed == 0 {
		t.Errorf("correct=%v failed=%d although no kill could be detected", r.Correct, r.Failed)
	}
}

// BENCHMARK.json must name exactly what the program reports.
func TestContractMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(Workloads) || len(c.EndToEnd) != len(EndToEnd) || len(c.PerLayer) != len(PerLayer) {
		t.Fatalf("contract lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range c.Workloads {
		if w.Name != Workloads[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), Workloads[i].Name)
		}
	}
	for i, m := range c.EndToEnd {
		if m.Name != EndToEnd[i].Name || m.Unit != EndToEnd[i].Unit || m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, EndToEnd[i])
		}
	}
	for i, m := range c.PerLayer {
		if m.Name != PerLayer[i].Name || m.Unit != PerLayer[i].Unit || m.Better != PerLayer[i].Better {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, PerLayer[i])
		}
	}
}

// The calibration loop runs, takes a plausible time, and a slower sample
// scales a span down.
func TestSpeedometer(t *testing.T) {
	sp, err := newSpeedometer()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	if d := sp.sample(); d <= 0 || d > 5 {
		t.Errorf("one calibration sample took %v s", d)
	}
	if got := speedIndex([]float64{2 * nominalChase, 2 * nominalChase, nominalChase}); got != 0.5 {
		t.Errorf("speed index of a box at half speed = %v, want 0.5", got)
	}
	var none *speedometer
	if none.sample() != nominalChase {
		t.Error("a nil speedometer must read nominal speed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
