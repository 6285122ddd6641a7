package chaos

import (
	"fmt"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Node is the protocol-daemon surface chaos manipulates; every scheme's
// node (and harness.Instance) satisfies it.
type Node interface {
	ID() membership.NodeID
	Start(eng *sim.Engine)
	Stop()
	Directory() *membership.Directory
	Running() bool
}

// ProxyHandle is the membership-proxy surface proxy-targeted actions
// inspect. A proxy is killed by stopping its host's daemon (Env.Nodes entry),
// which the federated harness wires to stop the co-located proxy too.
type ProxyHandle interface {
	Host() topology.HostID
	DC() int
	Running() bool
	IsLeader() bool
}

// Env binds a scenario to one concrete cluster: the engine whose clock the
// timeline runs on, the network and topology the faults mutate, and the
// protocol daemons the kills target.
type Env struct {
	// Eng is whatever drives virtual time: a plain *sim.Engine for serial
	// runs, or the parsim coordinator for partitioned runs (which executes
	// every scheduled action single-threaded between lookahead windows, so
	// topology mutations never race the worker goroutines).
	Eng   sim.Scheduler
	Net   *netsim.Network
	Top   *topology.Topology
	Nodes []Node
	// Proxies lists the membership proxies, when the cluster has any;
	// proxy-targeted actions fall back to plain host kills without them.
	Proxies []ProxyHandle
	// Trace, when non-nil, receives one line per executed action: its
	// canonical spec form, plus the node a leader-targeted verb resolved
	// (tampsim prints these; the bench matrix leaves it nil).
	Trace func(at time.Duration, msg string)

	// EngineFor, when set, returns the per-LP engine daemon i must restart
	// on (parsim runs). Nil means every daemon runs on Eng itself.
	EngineFor func(i int) *sim.Engine

	groups [][]topology.HostID // level-0 groups, computed lazily
}

// NewEnv builds an Env over a cluster's parts.
func NewEnv(eng sim.Scheduler, net *netsim.Network, top *topology.Topology, nodes []Node) *Env {
	return &Env{Eng: eng, Net: net, Top: top, Nodes: nodes}
}

// engineFor returns the engine daemon i starts on.
func (e *Env) engineFor(i int) *sim.Engine {
	if e.EngineFor != nil {
		return e.EngineFor(i)
	}
	return e.Eng.(*sim.Engine)
}

func (e *Env) trace(msg string) {
	if e.Trace != nil {
		e.Trace(e.Eng.Now(), msg)
	}
}

// StopNode kills daemon i if it is running.
func (e *Env) StopNode(i int) {
	if n := e.Nodes[i]; n.Running() {
		n.Stop()
	}
}

// StartNode restarts daemon i if it is down.
func (e *Env) StartNode(i int) {
	if n := e.Nodes[i]; !n.Running() {
		n.Start(e.engineFor(i))
	}
}

// Groups returns the level-0 membership groups of the environment's
// topology: hosts sharing a TTL-1 multicast scope (same switch), each group
// sorted, groups ordered by their lowest host. Computed once, before any
// faults run, so group identity stays stable through switch outages.
func (e *Env) Groups() [][]topology.HostID {
	if e.groups == nil {
		e.groups = e.Top.Level0Groups()
	}
	return e.groups
}

// Step schedules one action at a virtual-clock offset from scenario start.
type Step struct {
	At  time.Duration
	Act Action
}

// Scenario is a named fault timeline.
type Scenario struct {
	Name        string
	Description string
	// Expect summarizes the invariant outcome the scenario is designed to
	// probe (documentation; the auditor computes the real verdict).
	Expect string
	// MultiDC asks the harness to run the scenario on a multi-data-center
	// topology (WAN scenarios are meaningless on a single-DC tree).
	MultiDC bool
	// DCs is how many data centers a MultiDC scenario spans; 0 means the
	// harness default of 2. Three or more exercise the proxy layer's
	// remote-DC fallback order, which two DCs can never reach.
	DCs int
	// ProxiesPerDC is how many membership proxies each data center runs in
	// a MultiDC scenario; 0 means the harness default of 2. Larger groups
	// make room for scenarios that kill N-1 proxies and force the VIP
	// through a chain of failovers.
	ProxiesPerDC int
	Steps        []Step
}

// NumDCs returns the data-center count the scenario asks for (2 unless
// the scenario overrides it).
func (s *Scenario) NumDCs() int {
	if s.DCs > 0 {
		return s.DCs
	}
	return 2
}

// NumProxies returns the per-DC proxy-group size the scenario asks for (2
// unless the scenario overrides it).
func (s *Scenario) NumProxies() int {
	if s.ProxiesPerDC > 0 {
		return s.ProxiesPerDC
	}
	return 2
}

// End returns the offset at which the last action (including ramps and
// flap cycles) has finished; the harness runs until End plus a
// scheme-dependent settle bound before enforcing invariants.
func (s *Scenario) End() time.Duration {
	return extent(s.Steps)
}

// Install validates every step against env and schedules the timeline at
// the current virtual time. Nothing is scheduled if any step fails
// validation.
func (s *Scenario) Install(env *Env) error {
	for i, st := range s.Steps {
		if st.At < 0 {
			return fmt.Errorf("chaos: step %d: negative offset %v", i, st.At)
		}
		if err := st.Act.check(env); err != nil {
			return fmt.Errorf("chaos: step %d (@%v %s): %w", i, st.At, st.Act, err)
		}
	}
	base := env.Eng.Now()
	for _, st := range s.Steps {
		act := st.Act
		env.Eng.ScheduleAt(base+st.At, func() { act.Apply(env) })
	}
	return nil
}

// findDevice resolves a device name. On a multi-data-center topology, a
// bare single-DC name ("sw1", "core") falls back to its dc0- equivalent, so
// the single-DC library scenarios run unchanged on a federated cluster.
func (e *Env) findDevice(name string) (topology.Device, bool) {
	if d, ok := e.Top.FindDevice(name); ok {
		return d, true
	}
	return e.Top.FindDevice("dc0-" + name)
}

// device resolves a device name, which Install has already validated.
func (e *Env) device(name string) topology.DeviceID {
	d, ok := e.findDevice(name)
	if !ok {
		panic(fmt.Sprintf("chaos: unknown device %q past validation", name))
	}
	return d.ID
}
