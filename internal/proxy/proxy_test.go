package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
)

// dcFixture is a multi-data-center cluster deployed as production deploys
// it: every host runs membership and a service runtime; hosts 1..k of each
// data center additionally run proxies.
type dcFixture struct {
	*Deployment
	eng *sim.Engine
	net *netsim.Network
	top *topology.Topology
}

// newDCFixture deploys MultiDC(dcs, groups, perGroup) with proxiesPerDC
// proxies per data center.
func newDCFixture(t *testing.T, dcs, groups, perGroup, proxiesPerDC int) *dcFixture {
	t.Helper()
	top := topology.MultiDC(dcs, groups, perGroup)
	eng := sim.NewEngine(23)
	net := netsim.New(eng, top)
	mcfg := core.DefaultConfig()
	mcfg.MaxTTL = top.Diameter()
	nodes := make([]*core.Node, top.NumHosts())
	for h := range nodes {
		nodes[h] = core.NewNode(mcfg, net.Endpoint(topology.HostID(h)))
	}
	return &dcFixture{Deploy(eng, net, nodes, proxiesPerDC, service.DefaultConfig()), eng, net, top}
}

// TestDeployChecksItsShape: every data center needs at least one proxy, and
// room for its proxies beside its root leader. Deploy refuses a shape it
// cannot place, naming the bound, rather than deploying fewer proxies.
func TestDeployChecksItsShape(t *testing.T) {
	cases := []struct {
		dcs, perGroup, perDC int
		want                 string // panic message fragment; "" deploys
	}{
		{2, 3, 0, "perDC >= 1"},
		{2, 3, -1, "perDC >= 1"},
		{2, 2, 2, "data center 0 has 2 hosts, fewer than perDC+1 = 3"},
		{3, 1, 1, "data center 0 has 1 hosts, fewer than perDC+1 = 2"},
		{2, 3, 2, ""},
		{3, 2, 1, ""},
	}
	for _, tc := range cases {
		top := topology.MultiDC(tc.dcs, 1, tc.perGroup)
		eng := sim.NewEngine(1)
		net := netsim.New(eng, top)
		nodes := make([]*core.Node, top.NumHosts())
		for h := range nodes {
			nodes[h] = core.NewNode(core.DefaultConfig(), net.Endpoint(topology.HostID(h)))
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if tc.want == "" && msg != "" || !strings.Contains(msg, tc.want) {
					t.Errorf("Deploy(%d DCs of %d hosts, perDC=%d) panic = %q, want %q", tc.dcs, tc.perGroup, tc.perDC, msg, tc.want)
				}
			}()
			d := Deploy(eng, net, nodes, tc.perDC, service.DefaultConfig())
			if got := len(d.Proxies); got != tc.dcs*tc.perDC {
				t.Errorf("Deploy(%d DCs, perDC=%d) placed %d proxies", tc.dcs, tc.perDC, got)
			}
		}()
	}
}

func (f *dcFixture) startAll() { f.StartAll(f.eng) }

func (f *dcFixture) run(d time.Duration) { f.eng.Run(f.eng.Now() + d) }

func (f *dcFixture) leaderOf(dc int) *Proxy {
	for _, p := range f.Proxies {
		if p.dc == dc && p.IsLeader() {
			return p
		}
	}
	return nil
}

func TestProxyLeaderElectionAndVIP(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2) // 12 hosts; proxies at 1,2 (DC0) and 7,8 (DC1)
	f.startAll()
	f.run(15 * time.Second)
	for dc := 0; dc < 2; dc++ {
		leaders := 0
		for _, p := range f.Proxies {
			if p.dc == dc && p.IsLeader() {
				leaders++
			}
		}
		if leaders != 1 {
			t.Fatalf("DC%d has %d proxy leaders, want 1", dc, leaders)
		}
		addr, ok := f.VIP.Get(dc)
		if !ok {
			t.Fatalf("DC%d VIP unset", dc)
		}
		if !f.Hosts[addr].Proxy.IsLeader() {
			t.Fatalf("DC%d VIP points at a non-leader", dc)
		}
	}
}

func TestSummaryPropagation(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	// Register a service on a non-proxy node in DC1 (hosts 6-11).
	f.Hosts[9].RT.Register("Retriever", "0-2", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte("ok"), nil })
	f.startAll()
	f.run(25 * time.Second)
	l0 := f.leaderOf(0)
	if l0 == nil {
		t.Fatal("no DC0 leader")
	}
	e, ok := l0.RemoteSummary(1, "Retriever")
	if !ok {
		t.Fatal("DC0 leader has no summary for Retriever in DC1")
	}
	if e.Nodes != 1 || len(e.Partitions) != 3 {
		t.Fatalf("summary = %+v", e)
	}
	// Backup proxies are warm too (relayed through the proxy channel).
	for _, p := range f.Proxies {
		if p.dc == 0 && !p.IsLeader() {
			if _, ok := p.RemoteSummary(1, "Retriever"); !ok {
				t.Fatalf("backup proxy %v not warm", p.Host())
			}
		}
	}
}

func TestSummaryRemovalPropagates(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.Hosts[9].RT.Register("Retriever", "0", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte("ok"), nil })
	f.startAll()
	f.run(25 * time.Second)
	l0 := f.leaderOf(0)
	if _, ok := l0.RemoteSummary(1, "Retriever"); !ok {
		t.Fatal("summary never arrived")
	}
	f.Hosts[9].Node.Stop() // the only Retriever instance dies
	f.run(25 * time.Second)
	if _, ok := l0.RemoteSummary(1, "Retriever"); ok {
		t.Fatal("dead service still advertised across DCs")
	}
}

func TestCrossDCInvocation(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.Hosts[9].RT.Register("Retriever", "0-2", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte(fmt.Sprintf("dc1/p%d:%s", p, b)), nil })
	f.startAll()
	f.run(25 * time.Second)

	// A DC0 node (host 3, not a proxy) invokes the service that exists
	// only in DC1: the request must travel node->proxy->remote proxy->
	// backend and back (Figure 6), costing at least 2 WAN round trips'
	// worth of one-way latencies.
	start := f.eng.Now()
	var got []byte
	var gotErr error
	var at time.Duration
	f.Hosts[3].RT.Invoke("Retriever", 2, []byte("q"), service.Func(func(b []byte, err error) {
		got, gotErr, at = bytes.Clone(b), err, f.eng.Now()
	}), 0)
	f.run(3 * time.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if string(got) != "dc1/p2:q" {
		t.Fatalf("reply = %q", got)
	}
	rtt := at - start
	if rtt < 2*topology.DefaultWANLatency {
		t.Fatalf("cross-DC response took %v, faster than one WAN round trip %v", rtt, 2*topology.DefaultWANLatency)
	}
	if f.net.WANBytes() == 0 {
		t.Fatal("no WAN bytes accounted")
	}
}

func TestCrossDCRejectionWhenNowhere(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.startAll()
	f.run(20 * time.Second)
	var gotErr error
	f.Hosts[3].RT.Invoke("Ghost", 0, nil, service.Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(2 * time.Second)
	if !errors.Is(gotErr, service.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (proxy rejects unknown service)", gotErr)
	}
}

func TestProxyLeaderFailover(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.Hosts[9].RT.Register("Retriever", "0", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte("ok"), nil })
	f.startAll()
	f.run(25 * time.Second)
	old := f.leaderOf(0)
	if old == nil {
		t.Fatal("no DC0 leader")
	}
	oldAddr, _ := f.VIP.Get(0)

	// Kill the leader proxy daemon AND its membership daemon (the host
	// dies).
	f.Hosts[oldAddr].Node.Stop()
	old.Stop()
	f.run(20 * time.Second)

	nw := f.leaderOf(0)
	if nw == nil {
		t.Fatal("no new DC0 leader elected")
	}
	if nw == old {
		t.Fatal("dead leader still leads")
	}
	addr, _ := f.VIP.Get(0)
	if addr == oldAddr {
		t.Fatal("VIP did not move")
	}
	// Cross-DC invocation works through the new leader.
	var gotErr error
	f.Hosts[3].RT.Invoke("Retriever", 0, nil, service.Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(3 * time.Second)
	if gotErr != nil {
		t.Fatalf("post-failover invocation failed: %v", gotErr)
	}
}

func TestSummaryChunking(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 1)
	// Shrink chunks and register many services in DC1.
	for _, p := range f.Proxies {
		p.chunkSize = 3
	}
	for i := 0; i < 10; i++ {
		f.Hosts[8].RT.Register(fmt.Sprintf("Svc%02d", i), "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return nil, nil })
	}
	f.startAll()
	f.run(30 * time.Second)
	l0 := f.leaderOf(0)
	for i := 0; i < 10; i++ {
		if _, ok := l0.RemoteSummary(1, fmt.Sprintf("Svc%02d", i)); !ok {
			t.Fatalf("Svc%02d missing from chunked summary", i)
		}
	}
}

func TestRemoteDCTimeout(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 1)
	f.Hosts[8].RT.Register("Retriever", "0", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return nil, nil })
	f.startAll()
	f.run(25 * time.Second)
	l0 := f.leaderOf(0)
	if _, ok := l0.RemoteSummary(1, "Retriever"); !ok {
		t.Fatal("summary never arrived")
	}
	// Cut the WAN link.
	c0, _ := f.top.FindDevice("dc0-core")
	c1, _ := f.top.FindDevice("dc1-core")
	f.top.FailLink(c0.ID, c1.ID)
	f.run(30 * time.Second)
	if _, ok := l0.RemoteSummary(1, "Retriever"); ok {
		t.Fatal("remote summary survived WAN partition past its timeout")
	}
}

func TestThreeDataCenters(t *testing.T) {
	f := newDCFixture(t, 3, 1, 3, 1) // 9 hosts, 3 DCs
	f.Hosts[8].RT.Register("Doc", "0", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte("dc2"), nil })
	f.startAll()
	f.run(30 * time.Second)
	// A plain DC0 node invokes a service hosted only on a plain DC2 node.
	var got []byte
	var gotErr error
	f.Hosts[2].RT.Invoke("Doc", 0, nil, service.Func(func(b []byte, err error) { got, gotErr = bytes.Clone(b), err }), 0)
	f.run(3 * time.Second)
	if gotErr != nil || string(got) != "dc2" {
		t.Fatalf("got %q, %v", got, gotErr)
	}
}
