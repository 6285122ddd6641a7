package traffic

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"

	"repro/internal/membership"
)

// fixture is a flat cluster where every host runs a core membership node
// and a service runtime; hosts 1..replicas register the "app" service.
type fixture struct {
	eng      *sim.Engine
	net      *netsim.Network
	nodes    []*core.Node
	runtimes []*service.Runtime
}

func newFixture(t testing.TB, hosts, replicas, partitions int) *fixture {
	t.Helper()
	top := topology.FlatLAN(hosts)
	eng := sim.NewEngine(17)
	net := netsim.New(eng, top)
	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	f := &fixture{eng: eng, net: net}
	for h := 0; h < hosts; h++ {
		ep := net.Endpoint(topology.HostID(h))
		node := core.NewNode(cfg, ep)
		rt := service.NewRuntime(service.DefaultConfig(), eng, ep, node)
		f.nodes = append(f.nodes, node)
		f.runtimes = append(f.runtimes, rt)
	}
	spec := "0"
	if partitions > 1 {
		spec = fmt.Sprintf("0-%d", partitions-1)
	}
	for r := 1; r <= replicas; r++ {
		err := f.runtimes[r].Register("app", spec, time.Millisecond,
			func(int32, []byte) ([]byte, error) { return okReply, nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range f.nodes {
		n.Start(eng)
	}
	eng.Run(10 * time.Second) // converge membership before traffic starts
	return f
}

// okReply is every replica's answer, built once so the handler itself
// allocates nothing (BenchmarkLayerSteadyState counts).
var okReply = []byte("ok")

func (f *fixture) alive(id membership.NodeID) bool {
	return f.nodes[int(id)].Running()
}

func (f *fixture) run(d time.Duration) { f.eng.Run(f.eng.Now() + d) }

func testOptions(sessions, partitions int) Options {
	o := DefaultOptions()
	o.Sessions = sessions
	o.Partitions = partitions
	o.OpenOver = 500 * time.Millisecond
	return o
}

func TestSteadyTrafficAllOK(t *testing.T) {
	f := newFixture(t, 4, 2, 2)
	l := New(f.eng, testOptions(40, 2), f.runtimes[:1], f.alive)
	l.Start()
	f.run(30 * time.Second)
	l.Stop()
	f.run(5 * time.Second) // drain in-flight requests
	st := l.Stats()
	if st.Sessions != 40 {
		t.Fatalf("opened %d sessions, want 40", st.Sessions)
	}
	if st.Requests < 500 {
		t.Fatalf("only %d requests in 30s of 40 closed-loop sessions", st.Requests)
	}
	if st.OK != st.Requests {
		t.Fatalf("healthy cluster: ok=%d != requests=%d (timeouts=%d unavailable=%d)",
			st.OK, st.Requests, st.Timeouts, st.Unavailable)
	}
	if st.Misrouted != 0 || st.Migrations != 0 {
		t.Fatalf("healthy cluster saw misrouted=%d migrations=%d", st.Misrouted, st.Migrations)
	}
	if st.ReqP50 <= 0 || st.ReqP999 < st.ReqP99 || st.ReqP99 < st.ReqP50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", st.ReqP50, st.ReqP99, st.ReqP999)
	}
}

func TestSessionsMigrateWhenReplicaDies(t *testing.T) {
	// Two replicas both hosting partition 0 (single partition); kill one
	// mid-run and every session pinned to it must re-home to the survivor.
	f := newFixture(t, 4, 2, 1)
	l := New(f.eng, testOptions(40, 1), f.runtimes[:1], f.alive)
	l.Start()
	f.run(10 * time.Second)
	f.nodes[1].Stop()
	f.run(40 * time.Second)
	st := l.Stats()
	if st.Migrations == 0 {
		t.Fatal("no sessions migrated after replica death")
	}
	if st.Misrouted == 0 {
		t.Fatal("no misroutes counted while the directory was stale")
	}
	if st.Timeouts == 0 {
		t.Fatal("requests to the dead replica should have timed out")
	}
	if st.Misrouted > st.Timeouts+st.Unavailable {
		t.Fatalf("misrouted=%d exceeds failed requests (timeouts=%d unavailable=%d)",
			st.Misrouted, st.Timeouts, st.Unavailable)
	}
	if st.MigMax <= 0 || st.MigP50 <= 0 || st.MigP99 < st.MigP50 {
		t.Fatalf("migration quantiles: p50=%v p99=%v max=%v", st.MigP50, st.MigP99, st.MigMax)
	}
	// After detection, traffic must be fully healthy again: issue a fresh
	// measurement window and require zero new failures.
	before := l.Stats()
	f.run(20 * time.Second)
	after := l.Stats()
	if after.Timeouts != before.Timeouts || after.Unavailable != before.Unavailable {
		t.Fatalf("failures still accruing long after failover: %+v -> %+v", before, after)
	}
	if after.OK == before.OK {
		t.Fatal("no successful traffic after failover")
	}
	l.Stop()
	f.run(3 * time.Second) // past the 2s request timeout
	requireResolved(t, l.Stats())
}

// requireResolved: once the layer is stopped and drained, every request
// issued has resolved to exactly one outcome.
func requireResolved(t *testing.T, st metrics.TrafficStats) {
	t.Helper()
	if sum := st.OK + st.Timeouts + st.Unavailable + st.Rejected; st.Requests != sum {
		t.Fatalf("requests=%d, but ok+timeouts+unavailable+rejected=%d: %+v", st.Requests, sum, st)
	}
}

func TestUnroutableSessionsCountUnavailable(t *testing.T) {
	// Sessions bound to a partition nobody hosts fail fast as unavailable
	// and keep probing without wedging the layer.
	f := newFixture(t, 3, 1, 1)
	o := testOptions(10, 4) // partitions 1..3 unhosted: 7 of the 10 sessions
	l := New(f.eng, o, f.runtimes[:1], f.alive)
	l.Start()
	f.run(20 * time.Second)
	st := l.Stats()
	// Each unroutable session retries once a tick, flat: over a window of
	// ten ticks (started halfway between two) it fails exactly ten times.
	f.run(tick / 2)
	from := l.Stats().Unavailable
	f.run(10 * tick)
	if got := l.Stats().Unavailable - from; got != 7*10 {
		t.Fatalf("%d unavailable requests in ten ticks, want one per unroutable session per tick (70)", got)
	}
	if st.Unavailable == 0 {
		t.Fatal("no unavailable requests recorded for unhosted partitions")
	}
	if st.OK == 0 {
		t.Fatal("hosted partition 0 sessions should still succeed")
	}
	if st.Migrations != 0 {
		t.Fatalf("never-pinned sessions cannot migrate, got %d", st.Migrations)
	}
	l.Stop()
	f.run(3 * time.Second) // past the 2s request timeout
	requireResolved(t, l.Stats())
}

func TestStopHaltsIssue(t *testing.T) {
	f := newFixture(t, 4, 2, 2)
	l := New(f.eng, testOptions(20, 2), f.runtimes[:1], f.alive)
	l.Start()
	f.run(10 * time.Second)
	l.Stop()
	n := l.Stats().Requests
	f.run(10 * time.Second)
	if got := l.Stats().Requests; got != n {
		t.Fatalf("requests grew after Stop: %d -> %d", n, got)
	}
}

// TestRestartKeepsOneTickChain: a Stop and Start between two ticks resume
// the one pending tick chain — a second chain would run the wheel, and every
// think time and open with it, at double speed — and a Start after the chain
// has lapsed begins a new one.
func TestRestartKeepsOneTickChain(t *testing.T) {
	f := newFixture(t, 4, 2, 2)
	l := New(f.eng, testOptions(20, 2), f.runtimes[:1], f.alive)
	ticksOver := func(d time.Duration) uint64 {
		from := l.tick
		f.run(d)
		return l.tick - from
	}
	const window = time.Second - tick/2 // ten ticks, wherever the window starts
	l.Start()
	f.run(time.Second + tick/2) // halfway between two ticks
	l.Stop()
	l.Start()
	if got := ticksOver(window); got != 10 {
		t.Fatalf("%d ticks in %v after a restart within one tick, want 10", got, window)
	}
	l.Stop()
	if got := ticksOver(time.Second); got != 0 {
		t.Fatalf("%d ticks while stopped", got)
	}
	l.Start()
	if got := ticksOver(window); got != 10 {
		t.Fatalf("%d ticks in %v after a restart, want 10", got, window)
	}
}

func TestTrafficDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, time.Duration) {
		f := newFixture(t, 4, 2, 2)
		l := New(f.eng, testOptions(40, 2), f.runtimes[:1], f.alive)
		l.Start()
		f.run(10 * time.Second)
		f.nodes[1].Stop()
		f.run(30 * time.Second)
		st := l.Stats()
		return st.Requests, st.Misrouted, st.ReqP999
	}
	r1, m1, p1 := run()
	r2, m2, p2 := run()
	if r1 != r2 || m1 != m2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", r1, m1, p1, r2, m2, p2)
	}
}

func TestHedgingMasksDeadReplica(t *testing.T) {
	// Same death as TestSessionsMigrateWhenReplicaDies, but with hedging
	// on: requests stuck on the dead pinned replica send a duplicate to
	// the survivor after 200ms and resolve through it, so users see a
	// ~200ms blip instead of timeout+retry+migration.
	f := newFixture(t, 4, 2, 1)
	o := testOptions(40, 1)
	o.HedgeAfter = 200 * time.Millisecond
	l := New(f.eng, o, f.runtimes[:1], f.alive)
	l.Start()
	f.run(10 * time.Second)
	if st := l.Stats(); st.HedgedRequests != 0 {
		t.Fatalf("healthy cluster hedged %d requests", st.HedgedRequests)
	}
	f.nodes[1].Stop()
	f.run(40 * time.Second)
	// Snapshot before Stop: halting the tick loop also halts hedge checks,
	// so requests caught in flight at shutdown time out artificially.
	st := l.Stats()
	l.Stop()
	f.run(5 * time.Second)
	if st.HedgedRequests == 0 {
		t.Fatal("no hedges despite a dead pinned replica")
	}
	if st.HedgeWins == 0 {
		t.Fatal("hedge legs never won against a dead primary")
	}
	if st.HedgeWins > st.HedgedRequests {
		t.Fatalf("hedge wins %d exceed hedged requests %d", st.HedgeWins, st.HedgedRequests)
	}
	if st.Timeouts != 0 || st.Unavailable != 0 || st.Rejected != 0 {
		t.Fatalf("hedging left failures: timeouts=%d unavailable=%d rejected=%d (every stuck request should resolve via its duplicate)",
			st.Timeouts, st.Unavailable, st.Rejected)
	}
	if st.Requests-st.OK > uint64(o.Sessions) {
		t.Fatalf("ok=%d lags requests=%d by more than the possible in-flight count", st.OK, st.Requests)
	}
	if st.Misrouted == 0 {
		t.Fatal("misroute attribution should still see the stale pins")
	}
}

// TestSessionSize: a session stays at 32 bytes. The sessions workload of
// the repository benchmark holds a million of them in one slice, so each
// byte here is a megabyte of its live heap.
func TestSessionSize(t *testing.T) {
	if size := unsafe.Sizeof(session{}); size != 32 {
		t.Fatalf("session is %d bytes, want 32", size)
	}
}

// TestBenchmarkCeilingsHold runs BenchmarkLayerSteadyState's allocation
// ceiling under plain `go test`, so a regression fails the suite and not only
// the CI bench smoke.
func TestBenchmarkCeilingsHold(t *testing.T) {
	steadyStateCeiling(t)
}

// steadyStateCeiling drives the closed loop the `sessions` workload of the
// repository benchmark times: 10 000 sessions, each pinned to its replica,
// issuing a request per 5s think time through InvokeNode — half the four
// replicas' capacity, so nothing queues long. A request allocates nothing:
// its completion is the layer itself with a tag, and its two packets come
// from the network's recycled buffers. The ceiling is what the same cluster
// allocates idle, plus 1 per 100 requests for the occasional regrowth of a
// wheel slot. It returns the fixture and the layer, in steady state.
func steadyStateCeiling(tb testing.TB) (*fixture, *Layer) {
	f := newFixture(tb, 6, 4, 4)
	const window = 5 * time.Second
	mallocsOver := func(d time.Duration) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.run(d)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	idle := mallocsOver(window)

	o := testOptions(10000, 4)
	o.Think = 5 * time.Second
	o.OpenOver = o.Think // open at the steady rate, not as a herd
	l := New(f.eng, o, f.runtimes[:2], f.alive)
	l.Start()
	f.run(3 * o.Think) // every session open, pinned, and through its first think times
	from := l.Stats()
	loaded := mallocsOver(window)
	st := l.Stats()
	requests := st.Requests - from.Requests
	if st.Sessions != 10000 || st.OK != st.Requests-uint64(inflight(l)) || requests < 8000 {
		tb.Fatalf("not a steady state: %+v", st)
	}
	tb.Logf("%d allocations over an idle %d for %d requests", loaded, idle, requests)
	if loaded > idle+requests/100 {
		tb.Fatalf("%d allocations for %d requests over an idle %d (%.3f each), want at most 1 per 100",
			loaded, requests, idle, float64(loaded-idle)/float64(requests))
	}
	return f, l
}

// BenchmarkLayerSteadyState measures the steady state of steadyStateCeiling.
// One op is one 100ms tick of the wheel (about two hundred requests).
func BenchmarkLayerSteadyState(b *testing.B) {
	f, l := steadyStateCeiling(b)
	from := l.Stats().Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.run(tick)
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Stats().Requests-from)/float64(b.N), "requests/op")
}

// inflight counts the sessions with a request outstanding.
func inflight(l *Layer) int {
	n := 0
	for i := range l.sessions {
		if l.sessions[i].flags&fInflight != 0 {
			n++
		}
	}
	return n
}
