package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/topology"
)

// TestFederationConverges builds the two-DC federated cell and checks the
// §5 steady state directly: every DC's VIP resolves to a live leader proxy,
// and every proxy holds a fresh, truthful summary of every remote DC.
func TestFederationConverges(t *testing.T) {
	c := NewCell(HierarchicalProxy, nil, 3, 8, 7)
	c.StartAll()
	c.Run(30 * time.Second)

	if got := len(c.dep.Proxies); got != 4 {
		t.Fatalf("got %d proxies, want 4", got)
	}
	fed := c.federation()
	for dc := 0; dc < c.Top.NumDataCenters(); dc++ {
		holder, ok := c.dep.VIP.Get(dc)
		if !ok {
			t.Fatalf("DC %d has no VIP holder", dc)
		}
		if c.Top.HostDC(holder) != dc {
			t.Errorf("DC %d's VIP points outside the DC (host %d)", dc, holder)
		}
	}
	for _, p := range c.dep.Proxies {
		if !p.Running() {
			t.Fatalf("proxy on host %d not running", p.Host())
		}
		for _, rdc := range p.RemoteDCs() {
			age, ok := p.RemoteAge(rdc)
			if !ok {
				t.Errorf("proxy %d never heard from DC %d", p.Host(), rdc)
				continue
			}
			if age > fed.SummaryStale {
				t.Errorf("proxy %d's summary of DC %d is %v old", p.Host(), rdc, age)
			}
			got := p.RemoteServiceNodes(rdc)
			want := fed.Truth(rdc)
			if len(got) != len(want) {
				t.Errorf("proxy %d's summary of DC %d: got %v, want %v", p.Host(), rdc, got, want)
				continue
			}
			for svc, n := range want {
				if got[svc] != n {
					t.Errorf("proxy %d's summary of DC %d service %s: got %d, want %d",
						p.Host(), rdc, svc, got[svc], n)
				}
			}
		}
	}
}

// TestFederationRemoteDCFallback drives the proxy layer's remote-DC
// fallback order end to end on three data centers: a service advertised by
// both DC1 and DC2 is first served from DC1 (pickRemoteDC prefers the
// lowest advertised DC index), then — after every DC1 host dies and its
// summary expires out of DC0's proxies — the same DC0 invocation must fall
// back to DC2. Two DCs can never reach this path.
func TestFederationRemoteDCFallback(t *testing.T) {
	c := NewCell(HierarchicalProxy, &chaos.Scenario{DCs: 3}, 2, 4, 13)
	for dc := 1; dc <= 2; dc++ {
		tag := []byte(fmt.Sprintf("dc%d", dc))
		for _, h := range c.Top.HostsInDC(dc) {
			if err := c.dep.Hosts[h].RT.Register("shared", "0", time.Millisecond,
				func(p int32, b []byte) ([]byte, error) { return tag, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.StartAll()
	c.Run(30 * time.Second)

	client := c.dep.Hosts[c.Top.HostsInDC(0)[0]]
	invoke := func() (string, error) {
		var got []byte
		var gotErr error
		client.RT.Invoke("shared", 0, nil, service.Func(func(b []byte, err error) { got, gotErr = bytes.Clone(b), err }), 0)
		c.Run(3 * time.Second)
		return string(got), gotErr
	}
	if got, err := invoke(); err != nil || got != "dc1" {
		t.Fatalf("initial invocation served by %q (%v), want dc1 (lowest advertised DC)", got, err)
	}
	for _, h := range c.Top.HostsInDC(1) {
		c.Nodes[h].Stop()
	}
	// Long enough for DC1's summary to pass the staleness bound everywhere
	// and be dropped from the remote tables.
	c.Run(60 * time.Second)
	if got, err := invoke(); err != nil || got != "dc2" {
		t.Fatalf("after DC1 outage served by %q (%v), want fallback to dc2", got, err)
	}
}

// TestFederationProxyFailover kills each DC's proxy leader host and checks
// the VIP moves to the surviving backup — the paper's IP-takeover behavior.
func TestFederationProxyFailover(t *testing.T) {
	c := NewCell(HierarchicalProxy, nil, 3, 8, 11)
	c.StartAll()
	c.Run(30 * time.Second)

	old := make([]topology.HostID, c.Top.NumDataCenters())
	for dc := range old {
		h, ok := c.dep.VIP.Get(dc)
		if !ok {
			t.Fatalf("DC %d has no VIP holder", dc)
		}
		old[dc] = h
	}
	for dc := range old {
		c.Nodes[old[dc]].Stop()
	}
	c.Run(30 * time.Second)
	for dc := range old {
		h, ok := c.dep.VIP.Get(dc)
		if !ok {
			t.Fatalf("DC %d lost its VIP after leader death", dc)
		}
		if h == old[dc] {
			t.Errorf("DC %d's VIP still points at the dead leader %d", dc, old[dc])
		}
		if c.Top.HostDC(h) != dc {
			t.Errorf("DC %d's VIP moved outside the DC (host %d)", dc, h)
		}
		var leads bool
		for _, p := range c.dep.Proxies {
			if p.Host() == h && p.Running() && p.IsLeader() {
				leads = true
			}
		}
		if !leads {
			t.Errorf("DC %d's VIP holder %d is not a running leader proxy", dc, h)
		}
	}
}

// TestFederatedHostHasEveryNodeMethod holds the federated row to the plain
// hierarchical row's capabilities: chaos verbs and auditors reach a node by
// probing its instance for a method (SetHotLoad, IsLeader, Stats), and a
// method the federated instance did not forward was a fault or audit that
// silently skipped the row.
func TestFederatedHostHasEveryNodeMethod(t *testing.T) {
	c := NewCell(HierarchicalProxy, nil, 2, 3, 1)
	node := reflect.TypeOf(&core.Node{})
	for h, n := range c.Nodes {
		inst := reflect.TypeOf(n)
		for i := 0; i < node.NumMethod(); i++ {
			want := node.Method(i)
			got, ok := inst.MethodByName(want.Name)
			if !ok {
				t.Errorf("host %d: %v lacks core.Node's %s", h, inst, want.Name)
				continue
			}
			if got.Type.NumIn() != want.Type.NumIn() || got.Type.NumOut() != want.Type.NumOut() {
				t.Errorf("host %d: %v.%s is %v, core.Node's is %v", h, inst, want.Name, got.Type, want.Type)
				continue
			}
			for j := 1; j < want.Type.NumIn(); j++ {
				if got.Type.In(j) != want.Type.In(j) {
					t.Errorf("host %d: %v.%s is %v, core.Node's is %v", h, inst, want.Name, got.Type, want.Type)
				}
			}
			for j := 0; j < want.Type.NumOut(); j++ {
				if got.Type.Out(j) != want.Type.Out(j) {
					t.Errorf("host %d: %v.%s is %v, core.Node's is %v", h, inst, want.Name, got.Type, want.Type)
				}
			}
		}
		if _, ok := n.(interface{ SetHotLoad(units int) }); !ok {
			t.Errorf("host %d: the hot-leader verb's probe misses the node", h)
		}
		if _, ok := n.(interface{ IsLeader(level int) bool }); !ok {
			t.Errorf("host %d: the leader probe misses the node", h)
		}
		if _, ok := n.(interface{ Stats() core.Stats }); !ok {
			t.Errorf("host %d: the stats reader misses the node", h)
		}
	}
}
