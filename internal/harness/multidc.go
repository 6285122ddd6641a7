package harness

// The multi-DC federation layer: K data centers of Groups x PerGroup
// hierarchical nodes each, joined by WAN links, with a membership-proxy
// group (§5) in every data center sharing one VIP table. This is the
// cluster the chaos matrix's hierarchical+proxy column runs on, and the
// audit surface the federation invariants (summary freshness, summary
// truth, VIP uniqueness) check against ground truth.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/membership"
	"repro/internal/proxy"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
)

// FederatedOptions shape a federated cluster.
type FederatedOptions struct {
	DCs      int
	Groups   int
	PerGroup int
	// ProxiesPerDC is how many proxy daemons each data center runs (one
	// leader holding the VIP plus backups). Hosts 1..ProxiesPerDC of each
	// DC carry them, leaving host 0 (the DC's lowest ID) a plain member so
	// proxy kills never hit the hierarchical root leader.
	ProxiesPerDC int
}

// DefaultFederatedOptions mirrors the chaos matrix shape: two data centers,
// two proxies each.
func DefaultFederatedOptions(groups, perGroup int) FederatedOptions {
	return FederatedOptions{DCs: 2, Groups: groups, PerGroup: perGroup, ProxiesPerDC: 2}
}

// fedInstance is one host of a federated cluster: a hierarchical node, its
// service runtime, and — on proxy hosts — the co-located proxy daemon.
// Start/Stop treat node and proxy as one failure unit, so a chaos kill of a
// proxy host takes the proxy down with it (and a restart revives both).
type fedInstance struct {
	node *core.Node
	rt   *service.Runtime
	px   *proxy.Proxy // nil on plain hosts
}

func (f *fedInstance) ID() membership.NodeID { return f.node.ID() }

func (f *fedInstance) Start(eng *sim.Engine) {
	f.node.Start(eng)
	if f.px != nil {
		f.px.Start()
	}
}

// Stop stops the proxy first: the node's Stop takes the endpoint down, and
// the proxy must release the relay handler and channel while it still can.
func (f *fedInstance) Stop() {
	if f.px != nil {
		f.px.Stop()
	}
	f.node.Stop()
}

func (f *fedInstance) Directory() *membership.Directory { return f.node.Directory() }
func (f *fedInstance) Running() bool                    { return f.node.Running() }
func (f *fedInstance) IsLeader(level int) bool          { return f.node.IsLeader(level) }
func (f *fedInstance) Stats() core.Stats                { return f.node.Stats() }

// FederatedCluster is a Cluster whose hosts are fedInstances, plus the
// federation-wide state: the shared VIP table and every proxy daemon.
type FederatedCluster struct {
	*Cluster
	Opts    FederatedOptions
	VIP     *proxy.VIPTable
	Proxies []*proxy.Proxy
}

// svcName is the per-DC service each host registers, so proxy summaries
// carry real content the truth oracle can be checked against.
func svcName(dc int) string { return fmt.Sprintf("app%d", dc) }

// NewFederatedCluster builds the federated stack: a Hierarchical cluster
// spanning every DC, each node wrapped with a service runtime
// registering the DC's app service, and ProxiesPerDC proxies per DC
// exchanging summaries over the WAN.
func NewFederatedCluster(o FederatedOptions, seed int64) *FederatedCluster {
	if o.DCs < 1 || o.ProxiesPerDC < 1 || o.ProxiesPerDC > o.Groups*o.PerGroup-1 {
		panic("harness: bad federated options")
	}
	f := &FederatedCluster{
		Cluster: NewCluster(Hierarchical, topology.MultiDC(o.DCs, o.Groups, o.PerGroup), seed),
		Opts:    o,
		VIP:     proxy.NewVIPTable(),
	}
	f.Scheme = HierarchicalProxy
	remotes := make(map[int][]int, o.DCs)
	for dc := 0; dc < o.DCs; dc++ {
		for other := 0; other < o.DCs; other++ {
			if other != dc {
				remotes[dc] = append(remotes[dc], other)
			}
		}
	}
	for h, plain := range f.Nodes {
		hid := topology.HostID(h)
		dc := f.Top.HostDC(hid)
		ep := f.Net.Endpoint(hid)
		node := plain.(*core.Node)
		scfg := service.DefaultConfig()
		scfg.ProxyAddr = func() (topology.HostID, bool) { return f.VIP.Get(dc) }
		rt := service.NewRuntime(scfg, f.Eng, ep, node)
		if err := rt.Register(svcName(dc), "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil }); err != nil {
			panic(err)
		}
		inst := &fedInstance{node: node, rt: rt}
		// The DC's hosts are contiguous; position-in-DC decides proxy duty.
		if pos := h - int(f.Top.HostsInDC(dc)[0]); pos >= 1 && pos <= o.ProxiesPerDC {
			pcfg := proxy.DefaultConfig(dc, remotes[dc])
			pcfg.ProxyTTL = f.diameter()
			inst.px = proxy.New(pcfg, f.Eng, ep, rt, f.VIP)
			f.Proxies = append(f.Proxies, inst.px)
		}
		f.Nodes[h] = inst
	}
	return f
}

// Runtimes returns every host's service runtime in host order, for layers
// (the traffic matrix) that invoke services through the federated stack.
func (f *FederatedCluster) Runtimes() []*service.Runtime {
	out := make([]*service.Runtime, len(f.Nodes))
	for i, n := range f.Nodes {
		out[i] = n.(*fedInstance).rt
	}
	return out
}

// ProxyHandles adapts the proxies for chaos.Env.
func (f *FederatedCluster) ProxyHandles() []chaos.ProxyHandle {
	out := make([]chaos.ProxyHandle, len(f.Proxies))
	for i, p := range f.Proxies {
		out[i] = p
	}
	return out
}

// Federation builds the invariant auditor's cross-DC surface: every proxy,
// the VIP table, the protocol's own staleness bound, and a ground-truth
// oracle counting the running hosts of each data center's app service.
func (f *FederatedCluster) Federation() *invariant.Federation {
	proxies := make([]invariant.ProxyNode, len(f.Proxies))
	for i, p := range f.Proxies {
		proxies[i] = p
	}
	return &invariant.Federation{
		Proxies:      proxies,
		VIP:          f.VIP,
		SummaryStale: proxy.DefaultConfig(0, nil).SummaryTimeout,
		Truth: func(dc int) map[string]int {
			count := 0
			for _, h := range f.Top.HostsInDC(dc) {
				if f.Nodes[h].Running() {
					count++
				}
			}
			return map[string]int{svcName(dc): count}
		},
	}
}
