package tamp

import (
	"bytes"
	"time"

	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/service"
)

// Handler processes one application request on a provider node: it
// receives the partition the request addresses and the request payload,
// and returns the reply payload.
type Handler = service.Handler

// Invocation errors, re-exported from the service layer.
var (
	// ErrUnavailable: no provider for the (service, partition) is known.
	ErrUnavailable = service.ErrUnavailable
	// ErrTimeout: the provider (or proxy chain) did not reply in time.
	ErrTimeout = service.ErrTimeout
	// ErrRejected: the provider failed the request or a proxy rejected it.
	ErrRejected = service.ErrRejected
)

// App is a full application node: a membership daemon plus the
// Neptune-like service runtime for hosting and invoking services with
// random-polling load balancing, and optionally a membership proxy for
// multi-data-center deployments.
type App struct {
	*MService
	// host is the node with its service runtime and, on a data center's
	// proxy hosts, the co-located proxy.
	host *proxy.Host
}

// AppConfig tunes an App beyond the defaults.
type AppConfig struct {
	// EnableLoadPush turns on the §6.1 interest-based load dissemination.
	EnableLoadPush bool
}

// NewApp creates an application node on host h of the simulation. Call
// Run to start it.
func NewApp(s *Sim, h HostID) *App { return NewAppConfig(s, h, AppConfig{}) }

// NewAppConfig is NewApp with explicit tuning.
func NewAppConfig(s *Sim, h HostID, ac AppConfig) *App {
	ms, err := NewMService(s, h, "")
	if err != nil {
		panic(err) // defaults cannot fail
	}
	scfg := service.DefaultConfig()
	scfg.EnableLoadPush = ac.EnableLoadPush
	return &App{MService: ms, host: &proxy.Host{Node: ms.node, RT: service.NewRuntime(scfg, s.eng, s.net.Endpoint(h), ms.node)}}
}

// Provide registers a service implementation on this node: it is
// published through the membership service and served locally.
// serviceTime is the simulated per-request processing time (requests
// queue FIFO).
func (a *App) Provide(name, partitions string, serviceTime time.Duration, h Handler, params ...KV) error {
	return a.host.RT.Register(name, partitions, serviceTime, h, params...)
}

// Invoke performs one location-transparent invocation: the provider is
// found in the local yellow-page directory and chosen by random-polling
// load balancing; if no local provider exists and a proxy is attached,
// the request crosses data centers. The callback runs exactly once on the
// simulation goroutine; its payload is valid until it returns.
func (a *App) Invoke(serviceName string, partition int32, payload []byte, cb func([]byte, error)) {
	a.host.RT.Invoke(serviceName, partition, payload, service.Func(cb), 0)
}

// InvokeNode sends the request to one specific provider, bypassing load
// balancing — the building block for client-driven replication (e.g.
// write-through to every replica of a partition).
func (a *App) InvokeNode(n NodeID, serviceName string, partition int32, payload []byte, cb func([]byte, error)) {
	a.host.RT.InvokeNode(n, serviceName, partition, payload, service.Func(cb), 0)
}

// InvokeWait is Invoke that drives the simulation until the reply arrives
// or the request times out, returning the result synchronously — the
// convenient form for examples and tests. The result is the caller's.
func (a *App) InvokeWait(serviceName string, partition int32, payload []byte) ([]byte, error) {
	var out []byte
	var err error
	done := false
	a.Invoke(serviceName, partition, payload, func(b []byte, e error) {
		out, err, done = bytes.Clone(b), e, true
	})
	limit := a.s.Now() + 2*time.Minute
	for !done && a.s.Now() < limit {
		a.s.Run(10 * time.Millisecond)
	}
	if !done {
		return nil, ErrTimeout
	}
	return out, err
}

// Load returns this node's instantaneous service queue length.
func (a *App) Load() uint32 { return a.host.RT.Load() }

// Run starts the membership daemon and then, on a proxy host, the
// co-located proxy.
func (a *App) Run() { a.host.Start(a.s.eng) }

// Stop kills the node, with the co-located proxy as one failure unit (see
// proxy.Host.Stop).
func (a *App) Stop() { a.host.Stop() }

// DataCenters bundles a multi-data-center deployment (proxy.Deploy): apps
// on every host plus membership proxies per data center sharing one VIP
// table.
type DataCenters struct {
	*Sim
	Apps []*App
	dep  *proxy.Deployment
}

// NewDataCenters builds apps over a MultiDC topology and co-locates
// proxiesPerDC membership proxies with apps of each data center, never on a
// DC's lowest host, its root leader. Invocations that cannot be served
// locally are forwarded through the proxies automatically.
func NewDataCenters(top *Topology, proxiesPerDC int, seed int64) *DataCenters {
	s := NewSim(top, seed)
	ms := make([]*MService, top.NumHosts())
	nodes := make([]*core.Node, len(ms))
	for h := range ms {
		m, err := NewMService(s, HostID(h), "")
		if err != nil {
			panic(err)
		}
		ms[h], nodes[h] = m, m.node
	}
	d := &DataCenters{Sim: s, dep: proxy.Deploy(s.eng, s.net, nodes, proxiesPerDC, service.DefaultConfig())}
	for h, host := range d.dep.Hosts {
		d.Apps = append(d.Apps, &App{MService: ms[h], host: host})
	}
	return d
}

// StartAll runs every membership daemon, then every proxy.
func (d *DataCenters) StartAll() { d.dep.StartAll(d.eng) }

// App returns host h's application node.
func (d *DataCenters) App(h HostID) *App { return d.Apps[h] }

// VIP returns the current proxy address of a data center, if elected.
func (d *DataCenters) VIP(dc int) (HostID, bool) { return d.dep.VIP.Get(dc) }

// Converged reports whether every running daemon within each data center
// sees all running daemons of its own data center (cross-DC membership is
// summarized through proxies, not mirrored per node).
func (d *DataCenters) Converged() bool {
	top := d.Sim.top
	for dc := 0; dc < top.NumDataCenters(); dc++ {
		var ms []*MService
		for _, h := range top.HostsInDC(dc) {
			ms = append(ms, d.Apps[h].MService)
		}
		if !viewsConverged(ms) {
			return false
		}
	}
	return true
}

// WaitConverged runs until per-DC convergence or the deadline elapses.
func (d *DataCenters) WaitConverged(step, deadline time.Duration) bool {
	return d.runUntil(d.Converged, step, deadline)
}
