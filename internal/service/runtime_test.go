package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fixture is a cluster where every host runs a membership node and a
// service runtime.
type fixture struct {
	eng      *sim.Engine
	net      *netsim.Network
	nodes    []*core.Node
	runtimes []*Runtime
}

func newFixture(t *testing.T, top *topology.Topology) *fixture {
	t.Helper()
	f := newNodes(top)
	f.attach()
	return f
}

// newNodes builds the cluster's membership nodes without runtimes.
func newNodes(top *topology.Topology) *fixture {
	eng := sim.NewEngine(17)
	net := netsim.New(eng, top)
	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	f := &fixture{eng: eng, net: net}
	for h := 0; h < top.NumHosts(); h++ {
		f.nodes = append(f.nodes, core.NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return f
}

// attach builds a service runtime over every node.
func (f *fixture) attach() {
	for h, node := range f.nodes {
		f.runtimes = append(f.runtimes, NewRuntime(DefaultConfig(), f.eng, f.net.Endpoint(topology.HostID(h)), node))
	}
}

func (f *fixture) startAll() {
	for _, n := range f.nodes {
		n.Start(f.eng)
	}
}

func (f *fixture) run(d time.Duration) { f.eng.Run(f.eng.Now() + d) }

func echoHandler(tag string) Handler {
	return func(partition int32, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%s/p%d:%s", tag, partition, payload)), nil
	}
}

// TestInvokeBasic serves one request through runtimes built before their
// daemons start, and through runtimes built after, with the provider then
// killed and restarted: its runtime keeps the endpoint across the restart,
// so the provider serves again and every view converges.
//
// Mutant: serve keeps req.Payload instead of copying it into the serving record (-race).
// Mutant: a daemon's Start re-installs its own handler (late=false), or a restart does (late=true).
func TestInvokeBasic(t *testing.T) {
	for _, late := range []bool{false, true} {
		f := newNodes(topology.Clustered(2, 3))
		if late {
			f.startAll()
			f.run(15 * time.Second)
		}
		f.attach()
		if err := f.runtimes[4].Register("Echo", "0-1", time.Millisecond, echoHandler("n4")); err != nil {
			t.Fatal(err)
		}
		f.startAll()
		f.run(15 * time.Second)
		if late {
			f.nodes[4].Stop()
			f.run(10 * time.Second)
			f.nodes[4].Start(f.eng)
			f.run(15 * time.Second)
			for _, n := range f.nodes {
				if got := n.Directory().Len(); got != len(f.nodes) {
					t.Errorf("late: %v sees %d members after the restart, want %d", n.ID(), got, len(f.nodes))
				}
			}
		}

		var got []byte
		var gotErr error
		done := false
		f.runtimes[0].Invoke("Echo", 1, []byte("hi"), Func(func(b []byte, err error) {
			got, gotErr, done = bytes.Clone(b), err, true
		}), 0)
		f.run(time.Second)
		if !done {
			t.Fatalf("late=%v: callback never fired", late)
		}
		if gotErr != nil {
			t.Fatalf("late=%v: %v", late, gotErr)
		}
		if string(got) != "n4/p1:hi" {
			t.Fatalf("late=%v: reply = %q", late, got)
		}
	}
}

func TestInvokeUnknownServiceFails(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	f.startAll()
	f.run(10 * time.Second)
	var gotErr error
	f.runtimes[0].Invoke("Nope", 0, nil, Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(time.Second)
	if !errors.Is(gotErr, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", gotErr)
	}
}

func TestInvokeWrongPartitionFails(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	f.runtimes[1].Register("Echo", "0-1", time.Millisecond, echoHandler("n1"))
	f.startAll()
	f.run(10 * time.Second)
	var gotErr error
	f.runtimes[0].Invoke("Echo", 7, nil, Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(time.Second)
	if !errors.Is(gotErr, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", gotErr)
	}
}

func TestInvokeDeadProviderTimesOut(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	f.runtimes[1].Register("Echo", "0", time.Millisecond, echoHandler("n1"))
	f.startAll()
	f.run(10 * time.Second)
	// Kill the provider's endpoint abruptly (daemon gone, directory not
	// yet updated at the consumer).
	f.net.Endpoint(1).SetUp(false)
	var gotErr error
	f.runtimes[0].Invoke("Echo", 0, nil, Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(5 * time.Second)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestHandlerErrorSurfacesAsRejection(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	f.runtimes[1].Register("Bad", "0", time.Millisecond, func(int32, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	f.startAll()
	f.run(10 * time.Second)
	var gotErr error
	f.runtimes[0].Invoke("Bad", 0, nil, Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(time.Second)
	if !errors.Is(gotErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", gotErr)
	}
}

func TestReplicasShareLoad(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(4))
	counts := map[string]int{}
	mk := func(tag string) Handler {
		return func(p int32, b []byte) ([]byte, error) {
			counts[tag]++
			return []byte(tag), nil
		}
	}
	f.runtimes[1].Register("Echo", "0", 5*time.Millisecond, mk("a"))
	f.runtimes[2].Register("Echo", "0", 5*time.Millisecond, mk("b"))
	f.runtimes[3].Register("Echo", "0", 5*time.Millisecond, mk("c"))
	f.startAll()
	f.run(10 * time.Second)
	for i := 0; i < 300; i++ {
		f.runtimes[0].Invoke("Echo", 0, nil, Func(func([]byte, error) {}), 0)
		f.run(20 * time.Millisecond)
	}
	f.run(time.Second)
	total := counts["a"] + counts["b"] + counts["c"]
	if total != 300 {
		t.Fatalf("served %d of 300", total)
	}
	for tag, c := range counts {
		if c < 50 {
			t.Errorf("replica %s served only %d of 300; load balancing skewed", tag, c)
		}
	}
}

func TestRandomPollingPrefersIdleReplica(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	var busyServed, idleServed int
	f.runtimes[1].Register("Echo", "0", 500*time.Millisecond, func(int32, []byte) ([]byte, error) {
		busyServed++
		return nil, nil
	})
	f.runtimes[2].Register("Echo", "0", 500*time.Millisecond, func(int32, []byte) ([]byte, error) {
		idleServed++
		return nil, nil
	})
	f.startAll()
	f.run(10 * time.Second)
	// Saturate replica 1 with requests addressed to it directly, so its
	// queue is long while replica 2 sits idle.
	for i := 0; i < 20; i++ {
		f.runtimes[0].InvokeNode(1, "Echo", 0, nil, Func(func([]byte, error) {}), 0)
	}
	f.run(100 * time.Millisecond)
	// The consumer's polled invocations should overwhelmingly pick the
	// idle replica.
	const probes = 10
	for i := 0; i < probes; i++ {
		f.runtimes[0].Invoke("Echo", 0, nil, Func(func([]byte, error) {}), 0)
		f.run(200 * time.Millisecond)
	}
	f.run(time.Minute)
	if idleServed < probes*8/10 {
		t.Fatalf("idle replica served %d/%d probes (busy got %d); random polling not working",
			idleServed, probes, busyServed-20)
	}
}

func TestLoadReporting(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(2))
	f.runtimes[1].Register("Echo", "0", time.Second, echoHandler("n1"))
	f.startAll()
	f.run(10 * time.Second)
	if l := f.runtimes[1].Load(); l != 0 {
		t.Fatalf("idle load = %d", l)
	}
	for i := 0; i < 5; i++ {
		f.runtimes[0].Invoke("Echo", 0, nil, Func(func([]byte, error) {}), 0)
	}
	f.run(100 * time.Millisecond)
	if l := f.runtimes[1].Load(); l == 0 {
		t.Fatal("load stayed 0 with queued requests")
	}
}

func TestFailureShielding(t *testing.T) {
	// Once the membership service detects a provider failure, consumers
	// route around it without timeouts — the paper's failure shielding.
	f := newFixture(t, topology.FlatLAN(4))
	f.runtimes[1].Register("Echo", "0", time.Millisecond, echoHandler("n1"))
	f.runtimes[2].Register("Echo", "0", time.Millisecond, echoHandler("n2"))
	f.startAll()
	f.run(10 * time.Second)
	f.nodes[1].Stop()
	f.run(10 * time.Second) // detection completes
	for i := 0; i < 20; i++ {
		var got []byte
		var gotErr error
		f.runtimes[0].Invoke("Echo", 0, nil, Func(func(b []byte, err error) { got, gotErr = bytes.Clone(b), err }), 0)
		f.run(200 * time.Millisecond)
		if gotErr != nil {
			t.Fatalf("request %d failed: %v", i, gotErr)
		}
		if string(got) != "n2/p0:" {
			t.Fatalf("request %d served by %q, want surviving replica", i, got)
		}
	}
}

func TestLoadPushSkipsPolling(t *testing.T) {
	top := topology.FlatLAN(4)
	eng := sim.NewEngine(17)
	net := netsim.New(eng, top)
	mcfg := core.DefaultConfig()
	mcfg.MaxTTL = 1
	scfg := DefaultConfig()
	scfg.EnableLoadPush = true
	var nodes []*core.Node
	var rts []*Runtime
	for h := 0; h < 4; h++ {
		ep := net.Endpoint(topology.HostID(h))
		n := core.NewNode(mcfg, ep)
		nodes = append(nodes, n)
		rts = append(rts, NewRuntime(scfg, eng, ep, n))
	}
	rts[1].Register("Echo", "0", time.Millisecond, echoHandler("a"))
	rts[2].Register("Echo", "0", time.Millisecond, echoHandler("b"))
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(10 * time.Second)

	// Warm the interest + cache: a couple of real invocations (these may
	// poll) make the consumer interested at both providers.
	for i := 0; i < 6; i++ {
		rts[0].Invoke("Echo", 0, nil, Func(func([]byte, error) {}), 0)
		eng.Run(eng.Now() + 300*time.Millisecond)
	}
	// The consumer should now hold fresh samples for both replicas.
	if _, ok := rts[0].loadCache.Get(1); !ok {
		t.Fatal("no cached load for provider 1")
	}
	if _, ok := rts[0].loadCache.Get(2); !ok {
		t.Fatal("no cached load for provider 2")
	}
	// Count LoadPolls from here on: cached dispatch should avoid them.
	polls := 0
	for h := 1; h <= 2; h++ {
		net.Endpoint(topology.HostID(h)).SetFilter(func(pkt netsim.Packet) bool {
			if m, err := wire.Decode(pkt.Payload); err == nil {
				if _, ok := m.(*wire.LoadPoll); ok {
					polls++
				}
			}
			return true
		})
	}
	served := 0
	for i := 0; i < 10; i++ {
		rts[0].Invoke("Echo", 0, nil, Func(func(b []byte, err error) {
			if err == nil {
				served++
			}
		}), 0)
		eng.Run(eng.Now() + 100*time.Millisecond)
	}
	if served != 10 {
		t.Fatalf("served %d of 10", served)
	}
	if polls != 0 {
		t.Fatalf("cached dispatch still sent %d load polls", polls)
	}
	// Reporter sees one interested consumer at each provider.
	if rts[1].reporter.InterestedCount() != 1 {
		t.Fatalf("provider 1 interested = %d", rts[1].reporter.InterestedCount())
	}
}

func TestRegisterBadPartitionSpec(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(2))
	if err := f.runtimes[0].Register("X", "derp", time.Millisecond, echoHandler("x")); err == nil {
		t.Fatal("want error for bad partition spec")
	}
}

func TestServiceParamsPublished(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(3))
	f.runtimes[1].Register("HTTP", "0", time.Millisecond, echoHandler("h"),
		membership.KV{Key: "Port", Value: "8080"})
	f.startAll()
	f.run(10 * time.Second)
	got, err := f.nodes[2].Directory().Lookup("HTTP", "*")
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if len(got[0].Params) != 1 || got[0].Params[0].Value != "8080" {
		t.Fatalf("params = %v", got[0].Params)
	}
}
