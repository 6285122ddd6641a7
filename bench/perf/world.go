package perf

import (
	"fmt"
	"time"

	"repro/bench/micro"
	"repro/internal/alltoall"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// variant selects how one own-cluster simulation is assembled. The plain
// workload is the zero value; every other combination exists only for the
// traced run's diff metrics (same region, one switch flipped).
type variant struct {
	trace     bool // build nodes over the span-recording transport shim
	serial    bool // tree-churn: one serial engine instead of the partitioned path
	noAudit   bool // tree-churn: do not arm the invariant auditors
	noTraffic bool // sessions: build the traffic layer but never start it
}

// world is one assembled cluster plus whatever drives its virtual time.
type world struct {
	c     *harness.Cluster
	sched sim.Scheduler // the coordinator when partitioned, else the engine
	tr    *tracer       // nil when untraced

	// carried accumulates the counters of daemons about to restart: Start
	// zeroes a node's core.Stats, so restart captures them first.
	carried coreCounts
}

// newWorld builds a cluster of scheme (harness.Hierarchical or
// harness.AllToAll) over Clustered(groups, perGroup) from the same public
// parts harness.NewCluster uses. recvSpan names the delivery-callback span
// of a traced run.
func newWorld(scheme harness.Scheme, groups, perGroup int, seed int64, trace bool, recvSpan string) *world {
	top := topology.Clustered(groups, perGroup)
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, top)
	w := &world{c: &harness.Cluster{Scheme: scheme, Eng: eng, Net: net, Top: top}, sched: eng}
	if trace {
		w.tr = newTracer()
	}
	diameter := top.Diameter()
	if diameter < 1 {
		diameter = 1
	}
	for h := 0; h < top.NumHosts(); h++ {
		ep := w.transport(topology.HostID(h), recvSpan)
		switch scheme {
		case harness.Hierarchical:
			cfg := core.DefaultConfig()
			cfg.MaxTTL = diameter
			cfg.HeartbeatPad = micro.HeartbeatPad()
			w.c.Nodes = append(w.c.Nodes, core.NewNode(cfg, ep))
		case harness.AllToAll:
			cfg := alltoall.DefaultConfig()
			cfg.TTL = diameter
			cfg.HeartbeatPad = micro.HeartbeatPad()
			w.c.Nodes = append(w.c.Nodes, alltoall.NewNode(cfg, ep))
		default:
			panic(fmt.Sprintf("perf: no own-cluster builder for %v", scheme))
		}
	}
	return w
}

// transport returns host h's datagram surface: the raw endpoint, or the
// span-recording shim around it in a traced run.
func (w *world) transport(h topology.HostID, recvSpan string) netsim.Transport {
	ep := w.c.Net.Endpoint(h)
	if w.tr == nil {
		return ep
	}
	return &tracedTransport{Endpoint: ep, tr: w.tr, recv: w.tr.id(recvSpan), send: w.tr.id("netsim.send")}
}

// partition switches the world to the parsim path the scale figures run,
// with one worker: every logical process on the calling goroutine.
func (w *world) partition(seed int64) { w.sched = w.c.EnableParsim(seed, 1) }

// engineFor is the engine daemon i schedules on.
func (w *world) engineFor(i int) *sim.Engine {
	if w.c.Engs == nil {
		return w.c.Eng
	}
	return w.c.Engs[w.c.Part.LPOf[i]]
}

// run advances virtual time by d, under the sim.run span when traced.
func (w *world) run(d time.Duration) {
	until := w.sched.Now() + d
	if w.tr != nil {
		w.tr.begin(w.tr.id("sim.run"))
		defer w.tr.end()
	}
	if w.c.Coord != nil {
		w.c.Coord.Run(until)
		return
	}
	w.c.Eng.Run(until)
}

// events is the number of simulation events executed so far.
func (w *world) events() uint64 {
	if w.c.Coord != nil {
		return w.c.Coord.Steps()
	}
	return w.c.Eng.Steps()
}

// restart brings daemon i back on its own engine, keeping its counters.
func (w *world) restart(i int) {
	n := w.c.Nodes[i]
	if cn, ok := n.(*core.Node); ok {
		w.carried.add(cn.Stats())
	}
	n.Start(w.engineFor(i))
}

// coreCounts are the core.Stats counters the ledger reports, summed over
// daemons.
type coreCounts struct {
	heartbeatsRecv, updatesApplied, updatesDup  uint64
	syncsRequested, elections, bootstrapsServed uint64
}

func (c *coreCounts) add(s core.Stats) {
	c.heartbeatsRecv += s.HeartbeatsReceived
	c.updatesApplied += s.UpdatesApplied
	c.updatesDup += s.DuplicateUpdates
	c.syncsRequested += s.SyncsRequested
	c.elections += s.Elections
	c.bootstrapsServed += s.BootstrapsServed
}

func (c coreCounts) minus(o coreCounts) coreCounts {
	return coreCounts{
		heartbeatsRecv:   c.heartbeatsRecv - o.heartbeatsRecv,
		updatesApplied:   c.updatesApplied - o.updatesApplied,
		updatesDup:       c.updatesDup - o.updatesDup,
		syncsRequested:   c.syncsRequested - o.syncsRequested,
		elections:        c.elections - o.elections,
		bootstrapsServed: c.bootstrapsServed - o.bootstrapsServed,
	}
}

// coreStats sums the core counters over every daemon since it first
// started, restarts included.
func (w *world) coreStats() coreCounts {
	sum := w.carried
	for _, n := range w.c.Nodes {
		if cn, ok := n.(*core.Node); ok {
			sum.add(cn.Stats())
		}
	}
	return sum
}

// complete reports whether every directory lists every host.
func (w *world) complete() bool {
	n := len(w.c.Nodes)
	for _, inst := range w.c.Nodes {
		if inst.Directory().Len() != n {
			return false
		}
	}
	return true
}
