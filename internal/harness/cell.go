package harness

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/proxy"
	"repro/internal/service"
	"repro/internal/topology"
)

// Cell is one (scheme, scenario) experiment: a built, not yet started
// cluster with everything a scenario run needs wired to it. Attach runtimes
// and observers, StartAll, install the scenario into Env, audit under Audit.
type Cell struct {
	*Cluster
	// Env is the fault-injection surface, proxies included when the scheme
	// is federated.
	Env *chaos.Env
	// Audit is what the scheme's audited cells run under: the deadline is
	// the scenario's end plus ChaosSettle.
	Audit invariant.Options

	dep *proxy.Deployment // nil unless the scheme is federated
}

// NewCell builds the cluster scheme runs sc on; a nil sc means no faults.
// A federated scheme deploys across the scenario's data-center count (two
// unless the scenario asks for more), so single-DC scenarios exercise it
// with an idle-but-audited WAN. Any other scheme gets the multi-DC topology
// when the scenario asks for it, one flat LAN for a single group, and the
// paper's clustered layout otherwise.
func NewCell(scheme Scheme, sc *chaos.Scenario, groups, perGroup int, seed int64) *Cell {
	if sc == nil {
		sc = &chaos.Scenario{}
	}
	d := schemes[scheme]
	cell := &Cell{}
	switch {
	case d.federated:
		cell.Cluster = NewCluster(Hierarchical, topology.MultiDC(sc.NumDCs(), groups, perGroup), seed)
		cell.Scheme = scheme
		cell.deployProxies(sc.NumProxies())
	case sc.MultiDC:
		cell.Cluster = NewCluster(scheme, topology.MultiDC(sc.NumDCs(), groups, perGroup), seed)
	case groups <= 1:
		cell.Cluster = NewCluster(scheme, topology.FlatLAN(perGroup), seed)
	default:
		cell.Cluster = NewCluster(scheme, topology.Clustered(groups, perGroup), seed)
	}
	cell.Env = chaos.NewEnv(cell.Eng, cell.Net, cell.Top, cell.Nodes)
	if cell.dep != nil {
		for _, p := range cell.dep.Proxies {
			cell.Env.Proxies = append(cell.Env.Proxies, p)
		}
	}
	n := cell.Top.NumHosts()
	cell.Audit = invariant.Options{
		Interval:    time.Second,
		Deadline:    sc.End() + ChaosSettle(scheme, n),
		PurgeBound:  ChaosPurgeBound(scheme, n),
		LeaderGrace: ChaosLeaderGrace,
		EventDriven: true,
		// Cross-DC completeness is not the federated contract — proxies
		// summarize remote DCs instead of replicating their views; the
		// federation invariants audit that summary path.
		IntraDCOnly: d.federated,
	}
	if d.reformAudit {
		cell.Audit.GroupBounds = [2]int{core.GroupMin, core.GroupMax}
		cell.Audit.FaultEnd = sc.End()
	}
	return cell
}

// deployProxies lays the §5 stack (proxy.Deploy) over the cell's
// hierarchical nodes, perDC proxies per data center, and makes each
// deployment host the cell's instance, so a kill takes a host's proxy down
// with its node. Every host registers its data center's app service, so
// proxy summaries carry real content the truth oracle can be checked
// against.
func (c *Cell) deployProxies(perDC int) {
	c.dep = deploy(c.Cluster, perDC, service.DefaultConfig())
	for h, host := range c.dep.Hosts {
		if err := host.RT.Register(svcName(c.Top.HostDC(topology.HostID(h))), "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil }); err != nil {
			panic(err)
		}
		c.Nodes[h] = host
	}
}

// deploy lays proxy.Deploy over a Hierarchical cluster's nodes.
func deploy(c *Cluster, perDC int, scfg service.Config) *proxy.Deployment {
	nodes := make([]*core.Node, len(c.Nodes))
	for h, n := range c.Nodes {
		nodes[h] = n.(*core.Node)
	}
	return proxy.Deploy(c.Eng, c.Net, nodes, perDC, scfg)
}

// svcName is the app service every host of data center dc registers.
func svcName(dc int) string { return fmt.Sprintf("app%d", dc) }

// Runtimes returns one service runtime per host: the deployment's own, or
// a fresh one layered over every plain node, before or after StartAll.
func (c *Cell) Runtimes() []*service.Runtime {
	if c.dep == nil {
		return attachRuntimes(c.Cluster)
	}
	rts := make([]*service.Runtime, len(c.dep.Hosts))
	for h, host := range c.dep.Hosts {
		rts[h] = host.RT
	}
	return rts
}

// StartAuditor arms the invariant auditor under c.Audit, with the
// federation surface attached when there is one.
func (c *Cell) StartAuditor() *invariant.Auditor {
	aud := invariant.New(c.Eng, c.Top, auditNodes(c.Nodes), c.Audit)
	if c.dep != nil {
		aud.AttachFederation(c.federation())
	}
	aud.Start()
	return aud
}

// federation is the invariant auditor's cross-DC surface: every proxy, the
// VIP table, the protocol's own staleness bound, and a ground-truth oracle
// counting the running hosts of each data center's app service.
func (c *Cell) federation() *invariant.Federation {
	proxies := make([]invariant.ProxyNode, len(c.dep.Proxies))
	for i, p := range c.dep.Proxies {
		proxies[i] = p
	}
	return &invariant.Federation{
		Proxies:      proxies,
		VIP:          c.dep.VIP,
		SummaryStale: proxy.SummaryStale,
		Truth: func(dc int) map[string]int {
			count := 0
			for _, h := range c.Top.HostsInDC(dc) {
				if c.Nodes[h].Running() {
					count++
				}
			}
			return map[string]int{svcName(dc): count}
		},
	}
}

func auditNodes(in []Instance) []invariant.Node {
	out := make([]invariant.Node, len(in))
	for i, n := range in {
		out[i] = n
	}
	return out
}

// matrixVariant is one pass over a matrix's scenario x scheme grid: the
// suffix its cell keys and scenario names carry, so variants never collide
// with each other or with another matrix in diffs and seed derivation, and
// the hedge delay its sessions use (traffic matrices only).
type matrixVariant struct {
	suffix string
	hedge  time.Duration
}

// runMatrix runs one cell per scenario, variant and scheme through the
// worker pool under the key fig/scenario/scheme+suffix, then hands every
// report to emit in that same scenario-major, scheme-minor order.
func runMatrix(sw Sweep, seed int64, fig string, scenarios []*chaos.Scenario, variants []matrixVariant, columns []Scheme,
	run func(scheme Scheme, sc *chaos.Scenario, v matrixVariant, seed int64) metrics.RunReport,
	emit func(scenario string, scheme Scheme, rep metrics.RunReport)) {
	pool := NewPool(sw, seed)
	for _, sc := range scenarios {
		for _, v := range variants {
			for _, scheme := range columns {
				pool.Go(fmt.Sprintf("%s/%s/%s%s", fig, sc.Name, scheme, v.suffix), func(seed int64) metrics.RunReport {
					return run(scheme, sc, v, seed)
				})
			}
		}
	}
	reports := pool.Wait()
	for _, sc := range scenarios {
		for _, v := range variants {
			for _, scheme := range columns {
				emit(sc.Name+v.suffix, scheme, reports[0])
				reports = reports[1:]
			}
		}
	}
}
