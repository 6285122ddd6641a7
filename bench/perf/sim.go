package perf

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/invariant"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// simSpec describes one own-cluster workload: what is built, how long it
// warms up, and the fault timeline of its timed region. Everything is in
// virtual time except setups.
type simSpec struct {
	name             string // the workload's name
	scheme           harness.Scheme
	groups, perGroup int
	recvSpan         string // span name of the delivery callback when traced

	// warmup is the virtual time the set-up phase simulates after starting
	// every daemon; every directory must be complete at its end.
	warmup time.Duration
	// virtPerSecond is how much virtual time the timed region covers per
	// requested host second. It is a constant of the workload, so one
	// (--seed, --seconds) pair simulates exactly the same thing everywhere;
	// it is sized so the region takes about --seconds on the reference box.
	virtPerSecond time.Duration
	// Every killEvery a daemon dies and restarts downFor later; downFor
	// exceeds the scheme's convergence time, so each kill must leave every
	// live directory. The last tail of the region carries no fault.
	killEvery, downFor, tail time.Duration
	// victim picks the k-th daemon to die; like the sub-second offset of
	// each kill instant it draws on the workload seed, so the removal
	// delays are not quantised by the daemons' timer grid.
	victim func(s simSpec, rng *rand.Rand, k int) int

	// partitioned runs the cluster as -fig scale does: through
	// harness.EnableParsim with one event-driven auditor per LP.
	partitioned bool
	sessions    int // > 0: service runtimes plus this many client sessions
	setups      int // set-up repetitions; the median is reported
}

// Session-workload constants: hosts of the first serving groups run the
// app and act as gateways; think time and ramp follow the million-session
// smoke in internal/harness.
const (
	appName       = "app"
	appPartitions = 8
	sessionThink  = time.Minute
	sessionRamp   = time.Minute
	sessionDrain  = 5 * time.Second // lets in-flight requests resolve after Stop
)

// rejoinBound is how long after the last restart the auditors start
// enforcing completeness. A restarted daemon is back in every directory
// within a few seconds; the closed-form harness.ChaosSettle (60 s) would
// leave the quarter-length traced region without room for a single kill.
const rejoinBound = 20 * time.Second

// built is one assembled, warmed-up simulation.
type built struct {
	w     *world
	auds  []*invariant.Auditor
	layer *traffic.Layer
}

// region is everything one set-up plus timed region produced.
type region struct {
	setupS            float64
	hostCost          // of the timed region
	virt              time.Duration
	events            uint64
	nodes             int
	net               netsim.Stats // traffic of the timed region only
	view              viewStats
	expected, missing uint64
	inv               []metrics.InvariantResult
	traffic           *metrics.TrafficStats
	core              coreCounts
	peakDir           int
	lps               int
	tr                *tracer
	err               error // a broken set-up or accounting assertion
}

// toy is the spec at smoke-test size: 16 hosts, a few thousand sessions,
// the same timeline rules.
func (s simSpec) toy() simSpec {
	s.groups, s.perGroup, s.setups = 2, 8, 2
	if s.sessions > 0 {
		s.sessions = 2000
	}
	return s
}

// fault is one kill of the timeline: daemon victim dies at offset at of the
// timed region and restarts downFor later.
type fault struct {
	at     time.Duration
	victim int
}

// timeline generates the faults of a region of virtual length virt from
// the workload seed.
func (s simSpec) timeline(seed int64, virt time.Duration) []fault {
	rng := rand.New(rand.NewSource(seed))
	var out []fault
	for k := 0; ; k++ {
		at := time.Duration(k+1)*s.killEvery + time.Duration(rng.Int63n(int64(time.Second)))
		if at+s.downFor+s.tail > virt {
			return out
		}
		out = append(out, fault{at: at, victim: s.victim(s, rng, k)})
	}
}

// servers is how many hosts (the lowest-numbered ones) serve the app and
// act as session gateways; the last group stays out of the request path
// and supplies the kill victims, so no request can fail.
func (s simSpec) servers() int { return (s.groups - 1) * s.perGroup }

// build assembles the cluster, starts every daemon, and simulates the
// warm-up. virt is the length of the timed region that will follow (the
// auditors' completeness deadline depends on it).
func (s simSpec) build(seed int64, virt time.Duration, v variant) (*built, error) {
	w := newWorld(s.scheme, s.groups, s.perGroup, seed, v.trace, s.recvSpan)
	b := &built{w: w}
	if s.partitioned && !v.serial {
		w.partition(seed)
	}
	var rts []*service.Runtime
	if s.sessions > 0 {
		for h, n := range w.c.Nodes {
			var m service.Member = n.(*core.Node)
			if w.tr != nil {
				m = &tracedMember{Node: n.(*core.Node), tr: w.tr, span: w.tr.id("core.receive")}
			}
			rt := service.NewRuntime(service.DefaultConfig(), w.c.Eng, w.transport(topology.HostID(h), s.recvSpan), m)
			if h < s.servers() {
				err := rt.Register(appName, fmt.Sprint(h%appPartitions), time.Millisecond,
					func(p int32, payload []byte) ([]byte, error) { return payload, nil })
				if err != nil {
					return nil, err
				}
				rts = append(rts, rt)
			}
		}
	}
	w.c.StartAll()
	n := len(w.c.Nodes)
	if w.c.Coord != nil && !v.noAudit {
		kills := s.timeline(seed, virt)
		lastFault := s.warmup
		if len(kills) > 0 {
			lastFault += kills[len(kills)-1].at + s.downFor
		}
		b.auds = w.c.StartParAuditors(invariant.Options{
			// Coarse sampling, as -fig scale: exact violation times come
			// from the event hooks, the sampler only backstops absence.
			Interval:    10 * time.Second,
			Deadline:    lastFault + rejoinBound,
			PurgeBound:  harness.ChaosPurgeBound(s.scheme, n),
			LeaderGrace: harness.ChaosLeaderGrace,
			EventDriven: true,
		})
	}
	if s.sessions > 0 {
		o := traffic.DefaultOptions()
		o.Service = appName
		o.Sessions = s.sessions
		o.Partitions = appPartitions
		o.Think = sessionThink
		o.OpenOver = sessionRamp
		b.layer = traffic.New(w.c.Eng, o, rts, func(id membership.NodeID) bool {
			return w.c.Nodes[int(id)].Running()
		})
	}
	w.run(s.warmup)
	if !w.complete() {
		return nil, fmt.Errorf("set-up: a directory is incomplete after %v of warm-up", s.warmup)
	}
	if b.layer != nil && !v.noTraffic {
		// The session-open ramp is set-up too: the timed region starts with
		// the whole population open and in steady closed-loop state.
		b.layer.Start()
		w.run(sessionRamp)
		if st := b.layer.Stats(); st.Sessions != uint64(s.sessions) {
			return nil, fmt.Errorf("set-up: %d of %d sessions open after the ramp", st.Sessions, s.sessions)
		}
	}
	return b, nil
}

// tracedMember puts the core.receive span around the membership packets a
// service runtime delegates to its daemon.
type tracedMember struct {
	*core.Node
	tr   *tracer
	span spanID
}

func (m *tracedMember) Receive(pkt netsim.Packet) {
	m.tr.begin(m.span)
	m.Node.Receive(pkt)
	m.tr.end()
}

// regionChunks is how many pieces the timed region is simulated in, so the
// box's speed can be sampled between them (see speed.go).
const regionChunks = 8

// run executes the set-up (s.setups times, keeping the last) and the timed
// region of p.Seconds requested host seconds.
func (s simSpec) run(p Params, v variant) region {
	seed := p.Seed
	virt := time.Duration(p.Seconds * float64(s.virtPerSecond))
	var r region
	var b *built
	setups := make([]float64, 0, s.setups)
	var setupEvents uint64
	speedBefore := p.speed.sample()
	for i := 0; i < s.setups; i++ {
		b = nil
		runtime.GC() // the previous repetition's cluster is garbage now
		t0 := time.Now()
		var err error
		if b, err = s.build(seed, virt, v); err != nil {
			r.err = err
			return r
		}
		runtime.GC()
		raw := time.Since(t0).Seconds()
		speedAfter := p.speed.sample()
		setups = append(setups, raw*speedIndex([]float64{speedBefore, speedAfter}))
		speedBefore = speedAfter
		// Repetitions share the seed, so they must simulate the same thing.
		n := b.w.events()
		if i > 0 && n != setupEvents {
			r.err = fmt.Errorf("set-up repetition %d executed %d events, the first %d", i, n, setupEvents)
			return r
		}
		setupEvents = n
	}
	_, r.setupS, _ = Quartiles(setups)
	w := b.w
	r.nodes = len(w.c.Nodes)
	r.tr = w.tr
	if w.tr != nil {
		w.tr.reset()
	}

	probe := w.inject(s.timeline(seed, virt), s.downFor)
	if b.layer != nil {
		w.sched.Schedule(virt-sessionDrain, b.layer.Stop)
	}

	w.c.Net.ResetStats() // the region's traffic only
	coreBefore := w.coreStats()
	eventsBefore := w.events()
	r.hostCost = measure(p.speed, regionChunks, func(chunk int) {
		d := virt / regionChunks
		if chunk == regionChunks-1 {
			d = virt - d*(regionChunks-1)
		}
		w.run(d)
	})

	r.virt = virt
	r.events = w.events() - eventsBefore
	r.net = w.c.Net.TotalStats()
	r.view = probe.stats()
	r.expected, r.missing = probe.removals()
	r.core = w.coreStats().minus(coreBefore)
	r.lps = 1
	if w.c.Part != nil {
		r.lps = w.c.Part.NumLPs()
	}
	for _, n := range w.c.Nodes {
		if l := n.Directory().Len(); l > r.peakDir {
			r.peakDir = l
		}
	}
	if b.auds != nil {
		r.inv = harness.MergeAuditors(b.auds)
	}
	if b.layer != nil && !v.noTraffic {
		st := b.layer.Stats()
		r.traffic = &st
		if resolved := st.OK + st.Timeouts + st.Unavailable + st.Rejected; resolved != st.Requests {
			r.err = fmt.Errorf("traffic: %d of %d requests never resolved", st.Requests-resolved, st.Requests)
		}
	}
	if !w.complete() {
		r.err = fmt.Errorf("a directory is incomplete at the end of the timed region")
	}
	runtime.KeepAlive(b)
	return r
}

// inject schedules the faults on whatever drives the world's clock and
// returns the probe that times each removal.
func (w *world) inject(faults []fault, downFor time.Duration) *killProbe {
	probe := newKillProbe(w.c.Nodes)
	for _, f := range faults {
		i := f.victim
		w.sched.Schedule(f.at, func() {
			w.c.Nodes[i].Stop()
			probe.killed(i, w.sched.Now())
		})
		w.sched.Schedule(f.at+downFor, func() {
			probe.restarting(i)
			w.restart(i)
		})
	}
	return probe
}
