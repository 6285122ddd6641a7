package service

import (
	"errors"
	"time"

	"repro/internal/loadinfo"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Handler processes one application request on a provider. payload is the
// request's bytes, valid until the handler returns: the runtime reuses them
// for a later request, so a handler that keeps them copies them. It is safe to
// return as the reply, but it must not be written to; an append copies out
// because of the clipped capacity. The same holds for the payload an Invoke
// or InvokeNode completion receives, which is a view of the reply packet.
type Handler func(partition int32, payload []byte) ([]byte, error)

// Done receives the outcome of one Invoke or InvokeNode, with the tag the
// caller passed alongside it. Done runs on the simulation goroutine exactly
// once per invocation, always from an event of its own (never inside the
// Invoke), and may itself invoke. payload is packet memory, valid until Done
// returns (see Handler). The tag lets one long-lived receiver tell its
// invocations apart, so an invocation needs no per-request closure.
type Done interface {
	Done(tag uint64, payload []byte, err error)
}

// Func adapts a plain callback to Done; it ignores the tag. A func value is
// pointer-shaped, so Func(f) boxes into a Done without allocating.
type Func func([]byte, error)

// Done calls f.
func (f Func) Done(_ uint64, payload []byte, err error) { f(payload, err) }

// Member is the membership-daemon surface the runtime layers over: any
// protocol node that publishes services into a yellow-page directory and
// accepts delegated membership packets. *core.Node, *gossip.Node, and
// *alltoall.Node all satisfy it, which is what lets the same service and
// traffic layers run over every compared scheme.
type Member interface {
	ID() membership.NodeID
	Directory() *membership.Directory
	RegisterService(name, partitions string, params ...membership.KV) error
	// Receive handles a membership packet the runtime's endpoint mux did
	// not consume (heartbeats, updates, bootstrap/sync exchanges).
	Receive(pkt netsim.Packet)
	Running() bool
}

// Errors delivered through Done.
var (
	// ErrUnavailable means no replica for the (service, partition) exists
	// in any reachable directory.
	ErrUnavailable = errors.New("service: no available provider")
	// ErrTimeout means the provider (or proxy chain) did not reply in time.
	ErrTimeout = errors.New("service: request timed out")
	// ErrRejected means a proxy rejected the request (no data center hosts
	// the service).
	ErrRejected = errors.New("service: rejected by proxy")
)

// Config parametrizes the runtime.
type Config struct {
	// RequestTimeout bounds one invocation end to end.
	RequestTimeout time.Duration
	// ProxyAddr, if non-nil, resolves the local data center's membership
	// proxy address for requests that cannot be served locally.
	ProxyAddr func() (topology.HostID, bool)
	// EnableLoadPush turns on the interest-based load dissemination
	// protocol (§6.1): providers push load reports to recent consumers,
	// and invocations use fresh cached loads instead of synchronous
	// polling when available.
	EnableLoadPush bool
}

const (
	// pollSize is the number of random candidate replicas polled for load
	// before dispatch (random polling load balancing: the classic
	// power-of-two-choices and the paper's cited scheme).
	pollSize = 2
	// pollTimeout bounds the wait for load-poll replies.
	pollTimeout = 20 * time.Millisecond
)

// DefaultConfig returns sensible experiment defaults.
func DefaultConfig() Config {
	return Config{RequestTimeout: 2 * time.Second}
}

// instance is one registered local service implementation.
type instance struct {
	decl    membership.ServiceDecl
	handler Handler
	// serviceTime is the simulated per-request processing time.
	serviceTime time.Duration
}

// pool is the free list behind each kind of per-request record. A record is
// taken at the start of its request and put back — zeroed by whoever puts it
// back — before any user code runs on its behalf: completions re-enter Invoke
// (the search gateway's fan-out, the proxy relay) and those invocations reuse
// the record (except serving's: see its Fire).
type pool[T any] []*T

func (p *pool[T]) get() *T {
	if n := len(*p); n > 0 {
		x := (*p)[n-1]
		*p = (*p)[:n-1]
		return x
	}
	return new(T)
}

func (p *pool[T]) put(x *T) { *p = append(*p, x) }

// call is one outstanding outbound request, and the event that ends it when
// no reply does: a pooled record that is its own sim.Callback, holding its
// timeout handle by value, so a request costs the runtime no allocation.
// Replies find a call by its request ID through the calls map, never by
// record, so a late, duplicated or replayed reply to an ID whose record now
// serves a newer call finds nothing.
type call struct {
	rt      *Runtime
	id      uint64 // key in rt.calls; 0 for a record that only carries err
	to      Done
	tag     uint64 // the caller's word, handed back to to
	err     error  // what Fire delivers: ErrTimeout, or ErrUnavailable for a request that never left
	timeout sim.Timer
}

// newCall takes a record that will deliver err to (to, tag) when it fires.
func (r *Runtime) newCall(to Done, tag uint64, err error) *call {
	c := r.freeCalls.get()
	*c = call{rt: r, to: to, tag: tag, err: err}
	return c
}

// Fire delivers the call's failure: the reply timeout elapsed (a reply would
// have cancelled this event), or the request could not be sent at all.
func (c *call) Fire() {
	r, to, tag, err := c.rt, c.to, c.tag, c.err
	delete(r.calls, c.id)
	*c = call{}
	r.freeCalls.put(c)
	to.Done(tag, nil, err)
}

// fail delivers err to (to, tag) from an event of its own at the current
// instant, never from inside the Invoke that discovered it.
func (r *Runtime) fail(to Done, tag uint64, err error) {
	r.eng.ScheduleCall(0, r.newCall(to, tag, err))
}

// serving is one request queued on the provider: the pooled record the
// engine fires when the request's turn in the node's FIFO completes, holding
// a copy of the request payload in a buffer it keeps across reuse.
type serving struct {
	rt        *Runtime
	inst      *instance
	from      topology.HostID
	reqID     uint64
	partition int32
	payload   []byte
}

// Fire runs the handler and replies, and only then pools the record: the
// handler reads, and may return, its payload (no delivery is synchronous, so
// nothing it does can queue a request meanwhile).
func (s *serving) Fire() {
	r := s.rt
	r.queued--
	out, err := s.inst.handler(s.partition, s.payload[:len(s.payload):len(s.payload)])
	r.SendReply(s.from, s.reqID, err == nil, out)
	*s = serving{payload: s.payload[:0]}
	r.freeServings.put(s)
}

// poll is one invocation waiting for load-poll replies: the pooled record
// holds the request to dispatch and one slot per polled candidate, and is the
// pollTimeout event. It lives from Invoke until that event fires, decided or
// not — an answered poll's timeout still fires, as a no-op, because cancelling
// it would change the run's event count.
type poll struct {
	rt      *Runtime
	token   uint64
	decided bool

	service   string
	partition int32
	payload   []byte // a copy, in a buffer the record keeps across reuse
	to        Done
	tag       uint64

	slots    []pollSlot // one per polled candidate, in polled order; reused across polls
	answered int
}

type pollSlot struct {
	node  membership.NodeID
	load  uint32
	heard bool
}

// Fire is the poll timeout: decide on whatever replies arrived, unless the
// last reply already did.
func (p *poll) Fire() {
	if !p.decided {
		p.decide()
	}
	r := p.rt
	*p = poll{slots: p.slots[:0], payload: p.payload[:0]}
	r.freePolls.put(p)
}

// decide dispatches to the least loaded candidate that replied, ties broken
// by the engine's RNG, or to the first polled candidate when none did (the
// shuffle made that a random pick).
func (p *poll) decide() {
	r := p.rt
	p.decided = true
	delete(r.polls, p.token)
	bestLoad := ^uint32(0)
	ties := r.ties[:0]
	for _, s := range p.slots {
		if !s.heard {
			continue
		}
		switch {
		case s.load < bestLoad:
			bestLoad = s.load
			ties = append(ties[:0], s.node)
		case s.load == bestLoad:
			ties = append(ties, s.node)
		}
	}
	best := p.slots[0].node
	if len(ties) > 0 {
		best = ties[r.eng.Rand().Intn(len(ties))]
	}
	r.ties = ties
	service, partition, payload, to, tag := p.service, p.partition, p.payload, p.to, p.tag
	p.service, p.to, p.tag = "", nil, 0 // the record idles until its timeout fires
	r.request(topology.HostID(best), service, partition, payload, 0, to, tag)
}

// Runtime couples an endpoint's membership daemon with service dispatch.
type Runtime struct {
	cfg   Config
	eng   *sim.Engine
	ep    netsim.Transport
	node  Member
	insts map[string]*instance

	// The node is one server: requests for all local instances share one
	// FIFO queue, so load on one service is visible to consumers of
	// another — a node busy indexing is a bad choice for doc lookups too.
	busyUntil time.Duration
	queued    int

	nextReq uint64
	calls   map[uint64]*call
	polls   map[uint64]*poll

	freeCalls    pool[call]
	freeServings pool[serving]
	freePolls    pool[poll]

	// The resident encoder: every packet the runtime sends is framed by enc
	// from one of the out structs into buf, which the network copies from.
	// (What it receives is parsed into the transport's resident record, by
	// Packet.Decode.) cands and ties are the scratch slices of one Invoke,
	// polled the hosts one poll goes to.
	enc wire.Encoder
	buf []byte
	out struct {
		req   wire.ServiceRequest
		reply wire.ServiceReply
		poll  wire.LoadPoll
		load  wire.LoadReply
	}
	cands  []membership.NodeID
	ties   []membership.NodeID
	polled []topology.HostID

	// relayHandler, when set, sees every decoded packet before the default
	// handling (proxies built on this runtime install it).
	relayHandler func(pkt netsim.Packet, msg wire.Message) bool

	// interest-based load dissemination (nil unless enabled).
	reporter  *loadinfo.Reporter
	loadCache *loadinfo.Cache
}

// NewRuntime wires a runtime over a membership node, started or not. Its
// mux replaces the node's handler on the endpoint for good (a restarted
// node keeps it) and delegates membership packets to the node.
func NewRuntime(cfg Config, eng *sim.Engine, ep netsim.Transport, node Member) *Runtime {
	r := &Runtime{
		cfg:   cfg,
		eng:   eng,
		ep:    ep,
		node:  node,
		insts: make(map[string]*instance),
		calls: make(map[uint64]*call),
		polls: make(map[uint64]*poll),
	}
	ep.SetHandler(r.dispatch)
	if cfg.EnableLoadPush {
		r.reporter = loadinfo.NewReporter(eng, ep, r.Load)
		r.reporter.Start()
		r.loadCache = loadinfo.NewCache(eng, 4*loadinfo.ReportInterval)
	}
	return r
}

// Node returns the underlying membership node.
func (r *Runtime) Node() Member { return r.node }

// AllocReqID hands out a request ID from the runtime's space, so layered
// protocols (proxies) that correlate replies on the same endpoint never
// collide with the runtime's own outstanding calls.
func (r *Runtime) AllocReqID() uint64 {
	r.nextReq++
	return r.nextReq
}

// SetRelayHandler installs a hook that sees service packets before the
// default handling; returning true consumes the packet. Membership proxies
// use it to implement request forwarding.
func (r *Runtime) SetRelayHandler(h func(pkt netsim.Packet, msg wire.Message) bool) {
	r.relayHandler = h
}

// Register publishes a local service implementation through the membership
// service and installs its handler. serviceTime is the simulated processing
// time per request.
func (r *Runtime) Register(name, partitions string, serviceTime time.Duration, h Handler, params ...membership.KV) error {
	parts, err := membership.ParsePartitions(partitions)
	if err != nil {
		return err
	}
	if err := r.node.RegisterService(name, partitions, params...); err != nil {
		return err
	}
	r.insts[name] = &instance{
		decl:        membership.ServiceDecl{Name: name, Partitions: parts},
		handler:     h,
		serviceTime: serviceTime,
	}
	return nil
}

// Load returns the node's instantaneous queue length (the value served to
// load polls and pushed in load reports).
func (r *Runtime) Load() uint32 { return uint32(r.queued) }

// dispatch demultiplexes endpoint packets between the service layer and the
// membership daemon. Every packet is parsed here, once: Packet.Decode parses
// into the transport's resident record, and the daemon's own Decode of the
// same packet returns the same message. A packet whose frame fails is this
// layer's reject, whoever it was for; a sound frame around a body that fails
// is the reject of the kind's consumer, so one of the daemon's kinds still
// goes to the daemon (unless a relay handler sees everything).
func (r *Runtime) dispatch(pkt netsim.Packet) {
	msg, err := pkt.Decode()
	if err != nil {
		if t, ferr := wire.TypeOf(pkt.Payload); ferr == nil && r.relayHandler == nil && !runtimeKind(t) {
			r.node.Receive(pkt)
			return
		}
		r.ep.NoteReject()
		return
	}
	if r.relayHandler != nil && r.relayHandler(pkt, msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.ServiceRequest:
		r.serve(pkt.Src, m)
	case *wire.ServiceReply:
		r.complete(m)
	case *wire.LoadPoll:
		r.out.load = wire.LoadReply{Token: m.Token, Load: r.Load()}
		r.send(pkt.Src, &r.out.load)
	case *wire.LoadReply:
		r.pollReply(pkt.Src, m)
	case *wire.LoadReport:
		if r.loadCache != nil {
			r.loadCache.Absorb(m)
		}
	default:
		r.node.Receive(pkt)
	}
}

// runtimeKind reports whether the runtime consumes packets of kind t itself.
func runtimeKind(t wire.Type) bool {
	switch t {
	case wire.TServiceRequest, wire.TServiceReply, wire.TLoadPoll, wire.TLoadReply, wire.TLoadReport:
		return true
	}
	return false
}

// send frames m into the resident buffer and unicasts it.
func (r *Runtime) send(dst topology.HostID, m wire.Message) bool {
	r.buf = r.enc.AppendEncode(r.buf[:0], m)
	return r.ep.Unicast(dst, r.buf)
}

// SendRequest frames and unicasts one ServiceRequest under a caller-chosen
// ID without registering a call: the relay primitive for proxies, which
// correlate the reply themselves (see AllocReqID). It reports reachability
// like Transport.Unicast.
func (r *Runtime) SendRequest(dst topology.HostID, reqID uint64, serviceName string, partition int32, hops uint8, payload []byte) bool {
	r.out.req = wire.ServiceRequest{
		ReqID:     reqID,
		From:      r.node.ID(),
		Service:   serviceName,
		Partition: partition,
		Hops:      hops,
		Payload:   payload,
	}
	return r.send(dst, &r.out.req)
}

// SendReply frames and unicasts one ServiceReply; like SendRequest it is
// also the proxies' relay primitive.
func (r *Runtime) SendReply(dst topology.HostID, reqID uint64, ok bool, payload []byte) bool {
	r.out.reply = wire.ServiceReply{ReqID: reqID, OK: ok, Payload: payload}
	return r.send(dst, &r.out.reply)
}

// serve queues a request for the local instance; the reply goes out when its
// turn completes.
func (r *Runtime) serve(from topology.HostID, req *wire.ServiceRequest) {
	if r.reporter != nil {
		r.reporter.NoteConsumer(membership.NodeID(from))
	}
	inst, ok := r.insts[req.Service]
	if !ok || !r.hasPartition(inst, req.Partition) {
		r.SendReply(from, req.ReqID, false, nil)
		return
	}
	// Single-server FIFO queue per node: the request completes one service
	// time after the previously queued request (of any service) finishes.
	now := r.eng.Now()
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + inst.serviceTime
	r.queued++
	s := r.freeServings.get()
	*s = serving{rt: r, inst: inst, from: from, reqID: req.ReqID, partition: req.Partition, payload: append(s.payload[:0], req.Payload...)}
	r.eng.ScheduleCall(r.busyUntil-now, s)
}

func (r *Runtime) hasPartition(inst *instance, p int32) bool {
	if len(inst.decl.Partitions) == 0 && p < 0 {
		return true
	}
	for _, q := range inst.decl.Partitions {
		if q == p {
			return true
		}
	}
	return false
}

// Invoke performs one location-transparent invocation and reports its outcome
// to to.Done with tag: exactly once, on the simulation goroutine, always from
// an event of its own (never inside Invoke); Done may itself invoke. The
// payload Done receives is packet memory, as a Handler's is. A request
// awaiting polls keeps a copy of its payload. A plain callback passes
// Func(cb), 0.
func (r *Runtime) Invoke(serviceName string, partition int32, payload []byte, to Done, tag uint64) {
	r.cands = r.node.Directory().Hosts(r.cands[:0], serviceName, partition)
	candidates := r.cands
	if len(candidates) == 0 {
		if r.cfg.ProxyAddr != nil {
			if proxy, ok := r.cfg.ProxyAddr(); ok {
				r.request(proxy, serviceName, partition, payload, 1, to, tag)
				return
			}
		}
		r.fail(to, tag, ErrUnavailable)
		return
	}
	if len(candidates) == 1 {
		r.request(topology.HostID(candidates[0]), serviceName, partition, payload, 0, to, tag)
		return
	}
	// Pushed load cache: if we hold fresh samples for at least two
	// candidates, dispatch to the least loaded of them without the poll
	// round trip (§6.1's interest-based dissemination).
	if r.loadCache != nil {
		bestLoad := ^uint32(0)
		ties := r.ties[:0]
		fresh := 0
		for _, c := range candidates {
			if s, ok := r.loadCache.Get(c); ok {
				fresh++
				switch {
				case s.Load < bestLoad:
					bestLoad = s.Load
					ties = append(ties[:0], c)
				case s.Load == bestLoad:
					ties = append(ties, c)
				}
			}
		}
		r.ties = ties
		if fresh >= 2 {
			best := ties[r.eng.Rand().Intn(len(ties))]
			r.request(topology.HostID(best), serviceName, partition, payload, 0, to, tag)
			return
		}
	}
	// Random polling: poll up to pollSize random candidates, dispatch to
	// the least loaded of those that replied (or a random one on timeout).
	r.eng.Rand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > pollSize {
		candidates = candidates[:pollSize]
	}
	p := r.freePolls.get()
	r.nextReq++
	p.rt, p.token = r, r.nextReq
	p.service, p.partition, p.payload, p.to, p.tag = serviceName, partition, append(p.payload[:0], payload...), to, tag
	r.polled = r.polled[:0]
	for _, c := range candidates {
		p.slots = append(p.slots, pollSlot{node: c})
		r.polled = append(r.polled, topology.HostID(c))
	}
	r.polls[p.token] = p
	// One framing serves every polled candidate, in one send.
	r.out.poll = wire.LoadPoll{From: r.node.ID(), Token: p.token}
	r.buf = r.enc.AppendEncode(r.buf[:0], &r.out.poll)
	r.ep.UnicastAll(r.polled, r.buf)
	r.eng.ScheduleCall(pollTimeout, p)
}

// Candidates returns the directory's current view of who hosts (service,
// partition) — the same candidate set Invoke balances over. Callers that pin
// long-lived sessions to one replica (the traffic layer) use it to choose a
// home and to detect when the local view has gone empty. The slice is the
// caller's to keep and modify.
func (r *Runtime) Candidates(serviceName string, partition int32) []membership.NodeID {
	return r.node.Directory().Hosts(nil, serviceName, partition)
}

// HasProxy reports whether requests with no local candidates can be relayed
// to a membership proxy.
func (r *Runtime) HasProxy() bool {
	if r.cfg.ProxyAddr == nil {
		return false
	}
	_, ok := r.cfg.ProxyAddr()
	return ok
}

// InvokeNode sends the request to one specific provider, bypassing lookup
// and load balancing. Useful for client-driven replication; to.Done still
// sees ErrTimeout/ErrRejected like a normal invocation, under the same rules
// as Invoke's: exactly once, from its own event, with the caller's tag, and
// a payload that is packet memory.
func (r *Runtime) InvokeNode(n membership.NodeID, serviceName string, partition int32, payload []byte, to Done, tag uint64) {
	r.request(topology.HostID(n), serviceName, partition, payload, 0, to, tag)
}

// pollReply records a load sample in the sender's slot; once every polled
// candidate has answered the decision fires early. A reply from a host that
// was not polled has no slot and is dropped, and a second reply from one that
// was (a duplicate, a replay) refreshes its slot without counting again — the
// early decision waits for every real candidate.
func (r *Runtime) pollReply(from topology.HostID, m *wire.LoadReply) {
	p, ok := r.polls[m.Token]
	if !ok {
		return
	}
	for i := range p.slots {
		s := &p.slots[i]
		if s.node != membership.NodeID(from) {
			continue
		}
		if !s.heard {
			s.heard = true
			p.answered++
		}
		s.load = m.Load
		if p.answered == len(p.slots) {
			p.decide()
		}
		return
	}
}

// request transmits one ServiceRequest and arms the reply timeout.
func (r *Runtime) request(dst topology.HostID, serviceName string, partition int32, payload []byte, hops uint8, to Done, tag uint64) {
	c := r.newCall(to, tag, ErrTimeout)
	r.nextReq++
	c.id = r.nextReq
	r.calls[c.id] = c
	c.timeout = r.eng.ScheduleCallTimer(r.cfg.RequestTimeout, c)
	if !r.SendRequest(dst, c.id, serviceName, partition, hops, payload) {
		// Known-unreachable destination: the call is over, but its record
		// stays out of the pool to carry the error to an event of its own.
		c.timeout.Stop()
		delete(r.calls, c.id)
		c.err = ErrUnavailable
		r.eng.ScheduleCall(0, c)
	}
}

// complete resolves an outstanding call. The reply is matched by request ID
// alone: an ID that already completed or timed out is no longer in the map,
// whatever its record is doing now.
func (r *Runtime) complete(m *wire.ServiceReply) {
	c, ok := r.calls[m.ReqID]
	if !ok {
		return
	}
	delete(r.calls, m.ReqID)
	c.timeout.Stop()
	to, tag, replyOK, payload := c.to, c.tag, m.OK, m.Payload
	*c = call{}
	r.freeCalls.put(c)
	if !replyOK {
		to.Done(tag, nil, ErrRejected)
		return
	}
	to.Done(tag, payload, nil)
}
