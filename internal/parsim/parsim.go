package parsim

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Config assembles a partitioned run. The caller (internal/harness) builds
// the per-LP engines — seeding them with its DeriveSeed discipline — and a
// network already switched into partitioned mode; the coordinator only
// drives them.
type Config struct {
	// Engines holds one engine per LP, indexed by LP.
	Engines []*sim.Engine
	// Net is the partitioned network (EnablePartition already called with
	// buckets == Workers).
	Net *netsim.Network
	// Lookahead is the conservative window width (topology.Partition's
	// minimum cross-LP latency). Zero forces degenerate one-window execution
	// (still correct, never parallel-profitable).
	Lookahead time.Duration
	// Workers is the number of goroutines executing a window; worker w owns
	// LPs {i : i % Workers == w}. 1 runs everything inline on the caller's
	// goroutine with no synchronization at all.
	Workers int
}

// Coordinator drives one conservative windowed run. It implements
// sim.Scheduler so chaos environments and harness timelines install into a
// partitioned run unchanged: its clock and boundary actions are one private
// engine, whose events run between windows, when no worker goroutine is
// running. Nothing draws from that engine's RNG.
type Coordinator struct {
	eng       *sim.Engine // boundary actions; its clock is the last window boundary
	engs      []*sim.Engine
	net       *netsim.Network
	lookahead time.Duration
	workers   int

	until time.Duration // Run horizon: engine clocks never advance past it

	nextAt []time.Duration // per-LP next event time after a window, -1 = idle
	pubs   []int           // per-LP published-subscription counts

	cmds []chan wcmd // per-worker phase commands (Workers > 1)
	ack  chan struct{}
}

type wcmd struct {
	phase  uint8
	winEnd time.Duration
}

const (
	phaseRun uint8 = iota
	phaseExchange
)

// New builds a coordinator. Workers must divide nothing in particular — any
// count from 1 to NumLPs is useful; more than NumLPs wastes goroutines and
// is clamped.
func New(cfg Config) *Coordinator {
	if len(cfg.Engines) == 0 {
		panic("parsim: no engines")
	}
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("parsim: %d workers", cfg.Workers))
	}
	w := cfg.Workers
	if w > len(cfg.Engines) {
		w = len(cfg.Engines)
	}
	return &Coordinator{
		eng:       sim.NewEngine(0),
		engs:      cfg.Engines,
		net:       cfg.Net,
		lookahead: cfg.Lookahead,
		workers:   w,
		nextAt:    make([]time.Duration, len(cfg.Engines)),
		pubs:      make([]int, len(cfg.Engines)),
	}
}

// --- sim.Scheduler ---

// Now returns coordinator virtual time: the last window boundary. Between
// windows every engine clock equals it.
func (c *Coordinator) Now() time.Duration { return c.eng.Now() }

// Schedule runs fn at Now()+delay, between windows. The timer cancels like
// any engine timer.
func (c *Coordinator) Schedule(delay time.Duration, fn func()) *sim.Timer {
	return c.eng.Schedule(delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at, between windows.
func (c *Coordinator) ScheduleAt(at time.Duration, fn func()) *sim.Timer {
	return c.eng.ScheduleAt(at, fn)
}

var _ sim.Scheduler = (*Coordinator)(nil)

// Steps sums executed events across all LPs; boundary actions are not
// simulation events and do not count.
func (c *Coordinator) Steps() uint64 {
	var s uint64
	for _, e := range c.engs {
		s += e.Steps()
	}
	return s
}

// Run executes the simulation through time until, inclusive — the same
// contract as sim.Engine.Run: events at exactly until fire, and every engine
// clock is left at until.
func (c *Coordinator) Run(until time.Duration) {
	end := until + time.Nanosecond // exclusive horizon covering t == until
	c.until = until
	if c.workers > 1 {
		c.startWorkers()
		defer c.stopWorkers()
	}
	c.net.PublishAllSubs()
	for now := c.Now(); now < end; {
		c.runBoundary()
		winEnd := end
		if c.lookahead > 0 && now+c.lookahead < winEnd {
			winEnd = now + c.lookahead
		}
		if nb, ok := c.eng.NextEventAt(); ok && nb < winEnd {
			winEnd = nb
		}
		c.window(winEnd)
		now = c.afterWindow(winEnd, end)
	}
	for _, e := range c.engs {
		e.AdvanceTo(until)
	}
	c.eng.AdvanceTo(until)
}

// runBoundary executes every boundary action due at the current time. The
// engines are brought exactly to Now() first so actions observe one
// consistent clock (Stop/Start of a node reads its LP engine's Now).
func (c *Coordinator) runBoundary() {
	now := c.Now()
	if at, ok := c.eng.NextEventAt(); !ok || at > now {
		return
	}
	for _, e := range c.engs {
		e.AdvanceTo(now)
	}
	c.eng.Run(now)
	// Actions may have joined/left channels (node restarts); republish
	// snapshots before workers run again.
	c.net.PublishAllSubs()
}

// window executes one lookahead window [Now(), winEnd) across all workers:
// phase A runs every LP's local events, phase B (after a barrier) drains
// cross-LP messages, publishes subscription snapshots, and records each LP's
// next event time.
func (c *Coordinator) window(winEnd time.Duration) {
	if c.workers == 1 {
		c.phaseRun(0, winEnd)
		c.phaseExchange(0, winEnd)
		return
	}
	for _, ch := range c.cmds {
		ch <- wcmd{phaseRun, winEnd}
	}
	for range c.cmds {
		<-c.ack
	}
	for _, ch := range c.cmds {
		ch <- wcmd{phaseExchange, winEnd}
	}
	for range c.cmds {
		<-c.ack
	}
}

// afterWindow returns the next window start. Publication epochs bump when
// any LP published (the counts are determined by the event streams, so the
// bump pattern is worker-count-invariant), and the clock skips ahead to the
// earliest future work — next local event, parked cross-LP arrival (already
// scheduled, hence visible via nextAt), or boundary action — bounded below
// by winEnd. No boundary action is earlier than winEnd, so advancing the
// coordinator's engine there is legal; it stops at the Run horizon, where
// the loop ends.
func (c *Coordinator) afterWindow(winEnd, end time.Duration) time.Duration {
	pub := 0
	for lp := range c.pubs {
		pub += c.pubs[lp]
	}
	if pub > 0 {
		c.net.BumpPubEpoch()
	}
	next := end
	if nb, ok := c.eng.NextEventAt(); ok && nb < next {
		next = nb
	}
	for _, at := range c.nextAt {
		if at >= 0 && at < next {
			next = at
		}
	}
	if next < winEnd {
		next = winEnd
	}
	c.eng.AdvanceTo(min(next, c.until))
	return next
}

// phaseRun is window phase A for one worker: run the local event streams of
// every owned LP up to (exclusive) the window boundary. Cross-LP sends park
// in the sender's outboxes.
func (c *Coordinator) phaseRun(w int, winEnd time.Duration) {
	for lp := w; lp < len(c.engs); lp += c.workers {
		c.engs[lp].RunBefore(winEnd)
	}
}

// phaseExchange is window phase B for one worker: schedule every parked
// message bound for an owned LP (reading all senders' outboxes — safe, the
// phase barrier ordered those writes before us), publish owned LPs'
// subscription snapshots, and record their next event times. DrainCross
// clamps arrivals up to winEnd, so engines must be at winEnd before the next
// phase A; AdvanceTo here also keeps idle LPs' clocks in lockstep. Clocks
// are capped at the Run horizon so a finished run reads Now() == until,
// exactly like a serial engine (the final winEnd is the exclusive horizon
// one nanosecond past it).
func (c *Coordinator) phaseExchange(w int, winEnd time.Duration) {
	c.net.DrainCross(w, winEnd)
	adv := winEnd
	if adv > c.until {
		adv = c.until
	}
	for lp := w; lp < len(c.engs); lp += c.workers {
		eng := c.engs[lp]
		eng.AdvanceTo(adv)
		c.pubs[lp] = c.net.PublishSubs(lp)
		if at, ok := eng.NextEventAt(); ok {
			c.nextAt[lp] = at
		} else {
			c.nextAt[lp] = -1
		}
	}
}

func (c *Coordinator) startWorkers() {
	c.cmds = make([]chan wcmd, c.workers)
	c.ack = make(chan struct{}, c.workers)
	for w := range c.cmds {
		c.cmds[w] = make(chan wcmd, 1)
		go c.workerLoop(w)
	}
}

func (c *Coordinator) stopWorkers() {
	for _, ch := range c.cmds {
		close(ch)
	}
	c.cmds = nil
}

func (c *Coordinator) workerLoop(w int) {
	for cmd := range c.cmds[w] {
		switch cmd.phase {
		case phaseRun:
			c.phaseRun(w, cmd.winEnd)
		case phaseExchange:
			c.phaseExchange(w, cmd.winEnd)
		}
		c.ack <- struct{}{}
	}
}
