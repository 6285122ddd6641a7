package traffic

import (
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sim"
)

// Options parametrizes one traffic layer.
type Options struct {
	// Sessions is the number of virtual client sessions to open.
	Sessions int
	// Service is the directory name requests are issued against.
	Service string
	// Partitions is the partition-space size; session i is bound to
	// partition i % Partitions for its whole lifetime.
	Partitions int
	// Think is the mean think time between a reply and the session's next
	// request; per-request think is drawn uniformly from [Think/2, 3Think/2).
	Think time.Duration
	// OpenOver spreads session opens uniformly over this window from Start,
	// avoiding a synchronized thundering herd.
	OpenOver time.Duration

	// HedgeAfter enables request hedging: a pinned request still unresolved
	// this long after sending gets one duplicate to a different replica,
	// and the first successful reply (either leg) resolves the request —
	// the tail-latency defense of "The Tail at Scale", here measuring how
	// much of the membership-staleness tail it can absorb. Rounded to the
	// tick wheel. Zero (the default, and the committed matrices) is off;
	// hedging changes latency quantiles, so it is strictly opt-in.
	// Proxied (cross-DC relay) requests never hedge. Counted in
	// TrafficStats.HedgedRequests/HedgeWins.
	HedgeAfter time.Duration
}

const (
	// tick is the batching granularity: one simulation event per tick drains
	// every session due in that tick, so the per-session cost is a slice
	// slot, not a timer. A session also waits one tick after a failed
	// request before trying again (the migration probing speed).
	tick = 100 * time.Millisecond
	// payloadSize is the request payload in bytes.
	payloadSize = 64
)

// DefaultOptions returns the matrix defaults: a closed-loop population with
// 1s mean think time.
func DefaultOptions() Options {
	return Options{
		Sessions:   1000,
		Service:    "app",
		Partitions: 8,
		Think:      time.Second,
		OpenOver:   2 * time.Second,
	}
}

// Session lifecycle flags. A session is a flat struct in one slice; its
// state machine is documented in docs/TRAFFIC.md:
//
//	open ─→ pinned ──(reply ok)──→ pinned
//	          │ (request fails)
//	          ▼
//	      migrating ──(re-lookup non-empty, reply ok)──→ pinned   [migration recorded]
//	          │ (local view empty, proxy configured)
//	          ▼
//	       proxied ──(local replica reappears)──→ pinned
const (
	fMigrating = 1 << iota // lost its pinned home; clock is running
	fProxied               // routing via the DC proxy relay
	fInflight              // a request is outstanding; don't double-issue
)

// session is one virtual client. Kept flat and small (32 bytes) so a
// million of them cost one contiguous allocation and no per-session timers.
type session struct {
	gw       int32             // gateway runtime index (fixed at open)
	part     int32             // bound partition (fixed at open)
	replica  membership.NodeID // pinned home; NoNode forces a re-lookup
	flags    uint8
	gen      uint8         // request generation; a stale leg's completion is dropped
	legs     uint8         // outstanding legs of the current request (2 when hedged)
	sendAt   time.Duration // virtual send time of the outstanding request
	migStart time.Duration // send time of the first failed request this migration
}

// Layer drives a population of virtual client sessions against a running
// cluster. It is the measurement instrument for what membership staleness
// costs users: every request either lands on a live replica or pays a
// user-visible price that the layer attributes (misroute, migration,
// latency tail). One Layer belongs to one engine goroutine.
type Layer struct {
	eng   *sim.Engine
	opt   Options
	gws   []*service.Runtime
	alive func(membership.NodeID) bool

	sessions []session
	payload  []byte

	// ring is the tick wheel: ring[(cursor+d) % len] chains the entries due
	// d ticks from the current one, in the order they were added. One engine
	// event per tick drains a slot. free lists the drained blocks, which every
	// slot draws from, so the wheel holds as many blocks as its entries fill
	// plus one partial block per slot, whatever tick they fall due in.
	ring    []chain
	free    *block
	cursor  int
	tick    uint64
	running bool
	ticking bool // a tick event is pending; there is never more than one

	// opens[t] is how many sessions open at tick t.
	opens      []int32
	nextOpen   int32
	openedAll  bool
	hedgeTicks int // 0 = hedging off

	// Per-tick memo of directory lookups: sessions on the same gateway and
	// partition share one lookup per tick instead of one per session.
	memo     map[memoKey][]membership.NodeID
	memoTick uint64

	reqHist metrics.Histogram
	migHist metrics.Histogram

	opened      uint64
	requests    uint64
	ok          uint64
	timeouts    uint64
	unavailable uint64
	rejected    uint64
	misrouted   uint64
	migrations  uint64
	relayed     uint64
	hedged      uint64
	hedgeWins   uint64
}

type memoKey struct {
	gw   int32
	part int32
}

// New builds a traffic layer over the given gateway runtimes. alive is the
// ground-truth oracle ("is this node actually up right now") used only for
// misroute attribution — the sessions themselves see nothing but the
// directory, exactly like real clients.
func New(eng *sim.Engine, opt Options, gws []*service.Runtime, alive func(membership.NodeID) bool) *Layer {
	if opt.Think < tick {
		opt.Think = tick
	}
	if opt.Partitions < 1 {
		opt.Partitions = 1
	}
	if len(gws) == 0 {
		panic("traffic: no gateway runtimes")
	}
	l := &Layer{
		eng:     eng,
		opt:     opt,
		gws:     gws,
		alive:   alive,
		payload: make([]byte, payloadSize),
		memo:    map[memoKey][]membership.NodeID{},
	}
	// The wheel must reach the farthest future slot ever scheduled: the
	// think ceiling plus one tick of slack.
	horizon := int((3*opt.Think/2)/tick) + 2
	if r := int(opt.HedgeAfter/tick) + 2; r > horizon {
		horizon = r
	}
	l.ring = make([]chain, horizon)
	if opt.HedgeAfter > 0 {
		l.hedgeTicks = l.clampTicks(opt.HedgeAfter)
	}
	l.sessions = make([]session, opt.Sessions)
	for i := range l.sessions {
		l.sessions[i] = session{
			gw:      int32(i % len(gws)),
			part:    int32(i % opt.Partitions),
			replica: membership.NoNode,
		}
	}
	// Spread opens uniformly across the ramp window.
	openTicks := int(opt.OpenOver/tick) + 1
	l.opens = make([]int32, openTicks)
	for i := 0; i < opt.Sessions; i++ {
		l.opens[i%openTicks]++
	}
	return l
}

func (l *Layer) clampTicks(d time.Duration) int {
	t := int(d / tick)
	if t < 1 {
		t = 1
	}
	if t > len(l.ring)-1 {
		t = len(l.ring) - 1
	}
	return t
}

// Start begins the tick loop. Sessions open over the ramp window and then
// issue requests closed-loop until Stop.
func (l *Layer) Start() {
	if l.running {
		return
	}
	l.running = true
	if !l.ticking {
		// A Start soon after a Stop finds the old chain's tick still pending
		// and lets it carry on: a second chain would double the clock.
		l.ticking = true
		l.eng.ScheduleCall(0, (*tickFire)(l))
	}
}

// Stop halts the tick loop; outstanding requests still resolve and are
// counted, but no new requests are issued.
func (l *Layer) Stop() { l.running = false }

// tickFire adapts Layer to sim.Callback without a per-tick closure.
type tickFire Layer

func (t *tickFire) Fire() { (*Layer)(t).onTick() }

func (l *Layer) onTick() {
	l.ticking = false
	if !l.running {
		return
	}
	// Open this tick's share of new sessions.
	if !l.openedAll {
		n := int32(0)
		if l.tick < uint64(len(l.opens)) {
			n = l.opens[l.tick]
		}
		for ; n > 0 && int(l.nextOpen) < len(l.sessions); n-- {
			l.opened++
			l.issue(l.nextOpen)
			l.nextOpen++
		}
		if int(l.nextOpen) >= len(l.sessions) {
			l.openedAll = true
		}
	}
	// Drain the current wheel slot. Non-negative entries are sessions due
	// to issue; complemented entries (^i) are hedge checks.
	for b := l.due(); b != nil; b = l.recycle(b) {
		for _, i := range b.e[:b.n] {
			if i < 0 {
				l.hedgeCheck(^i)
			} else {
				l.issue(i)
			}
		}
	}
	l.tick++
	l.cursor = (l.cursor + 1) % len(l.ring)
	l.ticking = true
	l.eng.ScheduleCall(tick, (*tickFire)(l))
}

// completer adapts Layer to service.Done without a per-request closure: the
// tag its invocations carry says which session, request and leg a
// completion is for.
type completer Layer

// hedgeLeg marks the tag of a hedged request's second leg.
const hedgeLeg = 1 << 40

// legTag packs one leg of session i's request into a tag: the session index
// in the low 32 bits, the request generation above it, and the hedge bit.
func legTag(i int32, gen uint8, hedge bool) uint64 {
	tag := uint64(uint32(i)) | uint64(gen)<<32
	if hedge {
		tag |= hedgeLeg
	}
	return tag
}

func (c *completer) Done(tag uint64, _ []byte, err error) {
	(*Layer)(c).complete(int32(uint32(tag)), uint8(tag>>32), tag&hedgeLeg != 0, err)
}

// blockLen is how many entries one wheel block holds: with its link and
// count, a block is 4 KiB.
const blockLen = 1021

// block is one link of a wheel slot's chain.
type block struct {
	next *block
	n    int32
	e    [blockLen]int32
}

// chain is one wheel slot: its blocks from head to tail, oldest first. Only
// the tail is partly filled.
type chain struct{ head, tail *block }

// after schedules entry i (a session, or ^session for a hedge check) ticks
// from now, at the end of its slot. ticks is in [1, len(ring)-1]
// (clampTicks), so an entry never lands in the slot being drained.
func (l *Layer) after(i int32, ticks int) {
	s := &l.ring[(l.cursor+ticks)%len(l.ring)]
	b := s.tail
	if b == nil || b.n == blockLen {
		nb := l.free
		if nb != nil {
			l.free, nb.next = nb.next, nil
		} else {
			nb = new(block)
		}
		if b == nil {
			s.head = nb
		} else {
			b.next = nb
		}
		s.tail, b = nb, nb
	}
	b.e[b.n] = i
	b.n++
}

// due detaches the current slot's chain for the drain.
func (l *Layer) due() *block {
	s := &l.ring[l.cursor]
	b := s.head
	*s = chain{}
	return b
}

// recycle puts drained block b on the free list and returns the block after
// it.
func (l *Layer) recycle(b *block) *block {
	next := b.next
	b.next, b.n = l.free, 0
	l.free = b
	return next
}

// thinkTicks draws the next think delay in ticks, uniform on
// [Think/2, 3Think/2).
func (l *Layer) thinkTicks() int {
	half := int64(l.opt.Think / 2)
	d := time.Duration(half + l.eng.Rand().Int63n(2*half))
	return l.clampTicks(d)
}

// candidates resolves (gateway, partition) through the per-tick memo.
func (l *Layer) candidates(gw, part int32) []membership.NodeID {
	if l.memoTick != l.tick {
		clear(l.memo)
		l.memoTick = l.tick
	}
	k := memoKey{gw, part}
	c, ok := l.memo[k]
	if !ok {
		c = l.gws[gw].Candidates(l.opt.Service, part)
		l.memo[k] = c
	}
	return c
}

// issue sends one request for session i, routing per its state machine.
func (l *Layer) issue(i int32) {
	s := &l.sessions[i]
	if s.flags&fInflight != 0 || !l.running {
		return
	}
	gw := l.gws[s.gw]
	if !gw.Node().Running() {
		// The session's front end died: a real user reconnects through
		// another one. This is not a membership cost, so it is not counted —
		// the new gateway's directory staleness is what gets measured.
		for off := 1; off < len(l.gws); off++ {
			cand := (int(s.gw) + off) % len(l.gws)
			if l.gws[cand].Node().Running() {
				s.gw = int32(cand)
				gw = l.gws[cand]
				break
			}
		}
	}
	if s.replica == membership.NoNode {
		// Re-home: prefer a local replica; fall back to the proxy relay;
		// with neither, the request is unroutable.
		cands := l.candidates(s.gw, s.part)
		if len(cands) > 0 {
			s.replica = cands[l.eng.Rand().Intn(len(cands))]
			s.flags &^= fProxied
		} else if gw.HasProxy() {
			s.flags |= fProxied
		} else {
			l.requests++
			l.unavailable++
			l.reqHist.Record(0) // failed fast: no route existed
			l.resolve(i, false)
			return
		}
	}
	s.flags |= fInflight
	s.sendAt = l.eng.Now()
	s.legs = 1
	l.requests++
	tag := legTag(i, s.gen, false)
	if s.flags&fProxied != 0 {
		gw.Invoke(l.opt.Service, s.part, l.payload, (*completer)(l), tag)
		return
	}
	if !l.alive(s.replica) {
		// Ground truth says the pinned home is already dead: the directory
		// is stale and this user is about to pay for it.
		l.misrouted++
	}
	if l.hedgeTicks > 0 {
		l.after(^i, l.hedgeTicks)
	}
	gw.InvokeNode(s.replica, l.opt.Service, s.part, l.payload, (*completer)(l), tag)
}

// hedgeCheck fires one hedge delay after a pinned request was sent. If that
// request is still the one in flight (a resolved-and-reissued request shows
// a fresh sendAt) it duplicates it to a different replica — picked
// deterministically, no RNG, so enabling hedging perturbs nothing else —
// and the first successful leg resolves the request.
func (l *Layer) hedgeCheck(i int32) {
	s := &l.sessions[i]
	if s.flags&fInflight == 0 || s.flags&fProxied != 0 || s.legs != 1 {
		return
	}
	if l.eng.Now()-s.sendAt < time.Duration(l.hedgeTicks)*tick {
		return // a newer request; its own hedge check is still scheduled
	}
	var alt membership.NodeID = membership.NoNode
	for _, id := range l.candidates(s.gw, s.part) {
		if id != s.replica {
			alt = id
			break
		}
	}
	if alt == membership.NoNode {
		return // nowhere else to send it
	}
	s.legs = 2
	l.hedged++
	l.gws[s.gw].InvokeNode(alt, l.opt.Service, s.part, l.payload, (*completer)(l), legTag(i, s.gen, true))
}

// complete is the invocation outcome for one leg of session i's current
// request. gen guards against the losing leg of a hedged pair arriving
// after the request already resolved; hedge marks which leg this is. The
// first success resolves the request; a failed leg with another still
// outstanding just folds away.
func (l *Layer) complete(i int32, gen uint8, hedge bool, err error) {
	s := &l.sessions[i]
	if s.gen != gen {
		return // the losing leg; the request already resolved
	}
	if err != nil && s.legs > 1 {
		// This leg lost, but its sibling may still succeed.
		s.legs--
		return
	}
	s.gen++
	s.legs = 0
	s.flags &^= fInflight
	l.reqHist.Record(l.eng.Now() - s.sendAt)
	if err == nil {
		if hedge {
			l.hedgeWins++
		}
		l.ok++
		if s.flags&fProxied != 0 {
			l.relayed++
			// Stay unpinned: each proxied round re-checks the local view so
			// the session returns home as soon as a replica reappears.
			s.replica = membership.NoNode
		}
		if s.flags&fMigrating != 0 {
			s.flags &^= fMigrating
			l.migrations++
			l.migHist.Record(l.eng.Now() - s.migStart)
		}
		l.resolve(i, true)
		return
	}
	switch err {
	case service.ErrTimeout:
		l.timeouts++
	case service.ErrUnavailable:
		l.unavailable++
	case service.ErrRejected:
		l.rejected++
	default:
		l.timeouts++
	}
	if s.replica != membership.NoNode {
		// A pinned home failed us: the migration clock starts at the first
		// failure and runs until the first success somewhere else.
		if s.flags&fMigrating == 0 {
			s.flags |= fMigrating
			s.migStart = s.sendAt
		}
		s.replica = membership.NoNode
	}
	l.resolve(i, false)
}

// resolve finishes one request/response round: while the layer runs, the
// session thinks after a success and retries one tick after a failure.
func (l *Layer) resolve(i int32, ok bool) {
	if !l.running {
		return
	}
	if ok {
		l.after(i, l.thinkTicks())
	} else {
		l.after(i, 1)
	}
}

// Stats snapshots the user-level outcome counters.
func (l *Layer) Stats() metrics.TrafficStats {
	return metrics.TrafficStats{
		Sessions:    l.opened,
		Requests:    l.requests,
		OK:          l.ok,
		Timeouts:    l.timeouts,
		Unavailable: l.unavailable,
		Rejected:    l.rejected,
		Misrouted:   l.misrouted,
		Migrations:  l.migrations,
		MigP50:      l.migHist.Quantile(0.50),
		MigP99:      l.migHist.Quantile(0.99),
		MigMax:      l.migHist.Max(),
		ReqP50:      l.reqHist.Quantile(0.50),
		ReqP99:      l.reqHist.Quantile(0.99),
		ReqP999:     l.reqHist.Quantile(0.999),
		Relayed:     l.relayed,

		HedgedRequests: l.hedged,
		HedgeWins:      l.hedgeWins,
	}
}
