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
	// leader holding the VIP plus backups), placed by proxy.Place.
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

// federate is the §5 wiring every federated deployment shares. Over a
// hierarchical cluster spanning several data centers it gives each host a
// service runtime (scfg, with ProxyAddr resolving the host's own DC through
// the shared VIP table) and the hosts proxy.Place picks a membership proxy.
// rts and pxs are indexed by host; pxs is nil on plain hosts.
func federate(c *Cluster, proxiesPerDC int, scfg service.Config) (vip *proxy.VIPTable, rts []*service.Runtime, pxs []*proxy.Proxy) {
	vip = proxy.NewVIPTable()
	rts = make([]*service.Runtime, len(c.Nodes))
	pxs = make([]*proxy.Proxy, len(c.Nodes))
	for h, n := range c.Nodes {
		hid := topology.HostID(h)
		dc := c.Top.HostDC(hid)
		scfg.ProxyAddr = func() (topology.HostID, bool) { return vip.Get(dc) }
		rts[h] = service.NewRuntime(scfg, c.Eng, c.Net.Endpoint(hid), n.(*core.Node))
	}
	for _, pl := range proxy.Place(c.Top, proxiesPerDC) {
		pxs[pl.Host] = proxy.New(pl.Config, c.Eng, c.Net.Endpoint(pl.Host), rts[pl.Host], vip)
	}
	return vip, rts, pxs
}

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
	}
	f.Scheme = HierarchicalProxy
	vip, rts, pxs := federate(f.Cluster, o.ProxiesPerDC, service.DefaultConfig())
	f.VIP = vip
	for h, plain := range f.Nodes {
		dc := f.Top.HostDC(topology.HostID(h))
		if err := rts[h].Register(svcName(dc), "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil }); err != nil {
			panic(err)
		}
		if pxs[h] != nil {
			f.Proxies = append(f.Proxies, pxs[h])
		}
		f.Nodes[h] = &fedInstance{node: plain.(*core.Node), rt: rts[h], px: pxs[h]}
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
		SummaryStale: proxy.SummaryStale,
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
