package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/raceflag"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ChannelID names a multicast channel. The hierarchical protocol derives
// one channel per tree level from a base channel, mirroring the paper's
// "only a base multicast channel needs to be specified".
type ChannelID uint32

// UDPOverhead is the per-packet header cost (IP + UDP) added to payload
// length in all byte accounting, so measured bandwidth corresponds to wire
// bandwidth rather than payload bandwidth.
const UDPOverhead = 28

// Packet is a datagram as seen by a receiver.
type Packet struct {
	Src     topology.HostID
	Dst     topology.HostID // NoHost for multicast
	Channel ChannelID       // 0 and Dst >= 0 means unicast
	TTL     int
	Payload []byte // valid until the handler returns (see Transport)

	// buf is the record the network holds the packet in (sendBuf); nil for
	// a packet made outside the network, which carries nothing besides its
	// bytes. It is one pointer because a Packet travels by value into every
	// handler, most of them method values: with one more field it no longer
	// fits the argument registers beside the receiver, and every delivery
	// pays a spill and a stalled reload (about a fifth more wall on
	// flat-alltoall).
	buf *sendBuf
}

// sendBuf is the one record of a packet the network carries (see doc.go): its
// bytes, the tail they declare, its holders and the one decode they share. It
// is touched by the goroutine of one LP at a time, the one whose free lists
// it returns to (pool), so nothing is locked; other LPs only read a
// multicast's bytes, through loose records, while their holds keep it.
type sendBuf struct {
	b []byte
	// tail is the inert tail the bytes declare but do not carry
	// (wire.Padding), read once at send: the packet's modelled length is
	// len(b) + tail, and byte accounting and the byte faults both work on it
	// (WireSize, corrupt, truncate).
	tail int
	// refs counts the holders: delivery records, stale re-deliveries,
	// replay-ring slots, an arrival whose fault gave it bytes of its own and,
	// on a multicast's buffer, one hold per copy parked for another LP.
	// holds is, on a loose record, how many of those copies it wraps: the
	// holds it gives back when its last holder lets go (DrainCross).
	refs, holds int32
	// origin is set on a loose record, the record of a multicast's copies on
	// another LP than the sender's: b views origin's bytes, not its own.
	origin *sendBuf
	// Once dec is set, msg and err hold the first Decode of b, parsed into
	// dec, a decoder borrowed from pool at that Decode and returned with the
	// record, so a record in flight and not yet parsed costs no decoder: a
	// cold boot's join storm has tens of thousands in flight.
	msg  wire.Message
	err  error
	dec  *wire.Decoder
	pool *pools
}

// Free lists are size-classed, bufMin << c for class c (a larger payload
// gets a buffer of its own size, never kept), trimmed every bufTrim and
// capped at bufBudget bytes per LP; scribble fills a freed buffer under -race.
const (
	bufMin     = 64
	bufClasses = 11
	bufBudget  = 2 << 20
	bufTrim    = 10 * time.Second
	scribble   = 0xDB
)

// bufClass is the size class of an n-byte payload (bufClasses when too big).
func bufClass(n int) int { return min(bits.Len(uint(max(n, 1)-1)/bufMin), bufClasses) }

// Decode parses the packet payload. A packet the network delivered parses
// through its record, once for all its holders: every receiver of a multicast
// on one LP, and the duplicates, stale re-deliveries and replays of one
// packet. The kinds wire.Decoder keeps resident are parsed without allocating
// a message; a packet made outside the network is decoded afresh by
// wire.Decode. Either way the result is exactly wire.Decode(p.Payload). The
// message is shared and reused: it is valid until the handler returns, and
// callers must treat it — including nested slices — as immutable. What its
// fields refer to (fresh slices and strings, views of the payload) may be
// kept. Under -race, decoding a delivered packet after its handler returned
// panics.
func (p *Packet) Decode() (wire.Message, error) {
	b := p.buf
	if b == nil {
		return wire.Decode(p.Payload)
	}
	if raceflag.Enabled && (b.refs < 1 || !sameBytes(p.Payload, b.b)) {
		panic("netsim: Decode of a packet kept past its handler")
	}
	if b.dec == nil {
		b.dec = b.pool.decoder()
		b.msg, b.err = b.dec.Decode(p.Payload)
	}
	return b.msg, b.err
}

// sameBytes reports whether a and b are the same slice of the same array.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// tail is the packet's modelled tail (sendBuf.tail); a packet made outside
// the network declares none.
func (p *Packet) tail() int {
	if p.buf == nil {
		return 0
	}
	return p.buf.tail
}

// Multicast reports whether the packet was sent to a channel.
func (p *Packet) Multicast() bool { return p.Dst == topology.NoHost }

// WireSize is the accounted on-wire size of the packet: its modelled length —
// the payload plus the tail it declares (a padded heartbeat, rapid beat or
// gossip view; wire.Padding) — and UDPOverhead. Every byte counter adds it.
func (p *Packet) WireSize() int { return len(p.Payload) + p.tail() + UDPOverhead }

// Handler receives delivered packets.
type Handler func(pkt Packet)

// Transport is the datagram surface the protocols are written against:
// TTL-scoped multicast channels plus unicast. The simulated *Endpoint
// implements it, and so does the real-UDP transport of examples/realudp,
// which is how the same protocol state machines run both under virtual
// time and on real sockets. A Transport is not safe for concurrent use: its
// methods and its handler run on the goroutine that drives its host's
// protocol. Its ten methods are the ones the protocols call.
// Sends copy, like UDP's sendto: the caller keeps its bytes. A delivered
// Packet's Payload, and what is decoded from it, is valid until the handler
// returns; whatever is kept longer is copied out. One payload bound for
// several hosts goes out in one UnicastAll, not a Unicast per host: the
// simulated network then holds it in one buffer, as it does a multicast.
type Transport interface {
	// ID is the host identity on the network.
	ID() topology.HostID
	// SetHandler installs the delivery callback, replacing any other.
	// An endpoint has one owner: a daemon installs its Receive when it is
	// built, and a layer built over the daemon (a service runtime)
	// installs its mux in its place and delegates membership packets.
	SetHandler(h Handler)
	// SetUp brings the endpoint up or down; a down endpoint neither
	// sends nor receives.
	SetUp(up bool)
	// Join/Leave manage multicast channel subscriptions.
	Join(ch ChannelID)
	Leave(ch ChannelID)
	// Multicast sends on a channel with a TTL scope; Unicast sends to one
	// host and reports reachability (false on a known partition).
	Multicast(ch ChannelID, ttl int, payload []byte)
	Unicast(dst topology.HostID, payload []byte) bool
	// UnicastAll sends payload to every host of dsts, in order, exactly as
	// a Unicast to each would; dsts is the caller's and is not kept.
	UnicastAll(dsts []topology.HostID, payload []byte)
	// NoteReject records that the protocol layer discarded a received
	// packet as malformed, stale, or replayed; the count surfaces in the
	// transport's stats so harness reports can attribute drops.
	NoteReject()
	// Scratch lends a buffer to frame one large outgoing packet in (a
	// directory snapshot). It belongs to the goroutine that runs the
	// endpoint, which may share it with other endpoints: it is good until
	// that goroutine's next Scratch, and the caller stores what it grew
	// back through the pointer.
	Scratch() *[]byte
}

var _ Transport = (*Endpoint)(nil)

// Stats counts traffic at one endpoint or aggregated over the network.
type Stats struct {
	PktsSent, PktsRecv   uint64
	BytesSent, BytesRecv uint64
	// MulticastCopies counts per-receiver delivered copies of multicast
	// packets (each copy consumes receive bandwidth at its receiver).
	MulticastCopies uint64
	// Dropped counts deliveries suppressed by the loss model.
	Dropped uint64
	// Corrupted/Truncated/Replayed/Stale count adversarial byte-fault
	// injections performed on deliveries to this endpoint; GrayDelayed
	// counts deliveries slowed by a gray-failed endpoint at either end.
	Corrupted   uint64
	Truncated   uint64
	Replayed    uint64
	Stale       uint64
	GrayDelayed uint64
	// Rejected counts packets the protocol layer discarded as malformed,
	// stale, or replayed (see Transport.NoteReject).
	Rejected uint64
}

func (s *Stats) add(o Stats) {
	s.PktsSent += o.PktsSent
	s.PktsRecv += o.PktsRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.MulticastCopies += o.MulticastCopies
	s.Dropped += o.Dropped
	s.Corrupted += o.Corrupted
	s.Truncated += o.Truncated
	s.Replayed += o.Replayed
	s.Stale += o.Stale
	s.GrayDelayed += o.GrayDelayed
	s.Rejected += o.Rejected
}

// FaultsInjected totals the adversarial fault injections in s.
func (s Stats) FaultsInjected() uint64 {
	return s.Corrupted + s.Truncated + s.Replayed + s.Stale + s.GrayDelayed
}

// LinkProfile overrides the degradation model for one physical link: any
// delivery whose path crosses the link suffers the profile's loss,
// duplication, and jitter in addition to the network-wide defaults. Loss
// and duplication compose as independent events; jitter takes the maximum.
//
// The last four fields are the adversarial byte-fault dimension: instead
// of dropping or delaying whole packets, they hand the receiver damaged or
// duplicated-with-history input. Corruption flips a few random bits,
// truncation cuts the datagram short, replay follows a delivery with a
// copy of another recently delivered packet, and stale re-delivers the
// same packet again after a bounded extra delay. All draws come from the
// engine's seeded RNG, so runs stay byte-identical at any worker count.
type LinkProfile struct {
	Loss   float64 // additional drop probability in [0, 1)
	Jitter float64 // relative latency jitter in [0, 1); max with the global
	Dup    float64 // additional duplication probability in [0, 1)

	Corrupt  float64 // bit-flip probability per delivery in [0, 1)
	Truncate float64 // truncation probability per delivery in [0, 1)
	Replay   float64 // recent-packet replay probability per delivery in [0, 1)
	Stale    float64 // bounded stale re-delivery probability in [0, 1)
}

// adversarial reports whether the profile injects byte-level faults (as
// opposed to only dropping/delaying whole packets).
func (p LinkProfile) adversarial() bool {
	return p.Corrupt > 0 || p.Truncate > 0 || p.Replay > 0 || p.Stale > 0
}

func (p LinkProfile) validate() {
	check := func(v float64, what string) {
		if v < 0 || v >= 1 {
			panic(fmt.Sprintf("netsim: link %s %v out of [0,1)", what, v))
		}
	}
	check(p.Loss, "loss")
	check(p.Jitter, "jitter")
	check(p.Dup, "duplicate probability")
	check(p.Corrupt, "corrupt probability")
	check(p.Truncate, "truncate probability")
	check(p.Replay, "replay probability")
	check(p.Stale, "stale probability")
}

// Network is the simulated datagram fabric.
type Network struct {
	top    *topology.Topology
	eps    []*Endpoint
	loss   float64 // independent per-receiver drop probability
	jitter float64 // relative latency jitter, causing reordering
	dup    float64 // per-delivery duplication probability

	// profiles holds per-link overrides, indexed by the topology mark bit
	// assigned to each overridden link (see Topology.MarkLink and
	// Topology.MarkLinkDir).
	profiles []LinkProfile

	// hasFaults caches whether any installed profile injects byte-level
	// faults; when false, deliveries skip every adversarial code path (and
	// its RNG draws), keeping pre-existing scenarios byte-identical.
	hasFaults bool

	// runCap, when positive, caps the length of a run (see Endpoint.send).
	// Nothing outside the package's tests sets it: capped at one the network
	// schedules every copy as its own event, which is the reference the
	// differential test in run_test.go compares runs against.
	runCap int

	// lps holds the state of each logical process (LP): its free lists,
	// fan-out caches, subscription epoch and WAN byte counter. Each host
	// sends and receives on its LP's engine, and deliveries that cross LPs
	// detour through per-window outboxes (see partition.go). A serial network
	// is one LP with no coordinator, so no copy ever crosses.
	lps *lpNet
}

// fanKey identifies one cached multicast fan-out.
type fanKey struct {
	src topology.HostID
	ch  ChannelID
	ttl int
}

// fanout is a cached receiver set: scope order filtered by subscription,
// with per-receiver latency and path marks. The slices are reused across
// rebuilds, so nothing that outlives the send may view them: a run in flight
// holds its own copy of its receivers.
type fanout struct {
	topEpoch uint64
	subEpoch uint64
	pubEpoch uint64 // published-subscription epoch
	dsts     []*Endpoint
	lat      []time.Duration
	marks    []topology.MarkSet // empty when no links are marked
}

// New creates a network with one endpoint per host in the topology, all on
// one LP driven by eng: the serial network.
func New(eng *sim.Engine, top *topology.Topology) *Network {
	n := &Network{top: top}
	n.eps = make([]*Endpoint, top.NumHosts())
	for i := range n.eps {
		n.eps[i] = &Endpoint{
			net:  n,
			id:   topology.HostID(i),
			up:   true,
			subs: make(map[ChannelID]bool),
		}
	}
	n.EnablePartition(make([]int, len(n.eps)), []*sim.Engine{eng}, 1)
	return n
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topology.Topology { return n.top }

// SetLossProbability sets the independent per-receiver drop probability in
// [0, 1). Applies to both unicast and multicast deliveries.
func (n *Network) SetLossProbability(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: loss probability %v out of [0,1)", p))
	}
	n.loss = p
}

// SetLatencyJitter makes every delivery latency vary uniformly by ±frac
// (relative), so packets from one sender can arrive out of order — the
// reordering UDP permits and the protocols must tolerate.
func (n *Network) SetLatencyJitter(frac float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("netsim: jitter %v out of [0,1)", frac))
	}
	n.jitter = frac
}

// SetDuplicateProbability makes each delivery additionally arrive a second
// time with probability p — the duplication UDP permits; protocols must be
// idempotent under it.
func (n *Network) SetDuplicateProbability(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: duplicate probability %v out of [0,1)", p))
	}
	n.dup = p
}

// SetLinkProfile overrides the degradation model on the link between two
// devices (in both directions). The link is registered for path tracking
// with the topology, so only deliveries actually routed across it are
// affected. Setting a profile again on the same link replaces the previous
// override; a zero profile restores the global defaults for that link.
func (n *Network) SetLinkProfile(a, b topology.DeviceID, p LinkProfile) {
	p.validate()
	n.installProfile(n.top.MarkLink(a, b), p)
}

// SetLinkProfileDir overrides the degradation model for the a→b direction
// of a link only: deliveries routed from a towards b suffer the profile
// while the reverse direction keeps its own settings — the asymmetric
// ("one-way") link faults that destabilize heartbeat protocols. The same
// replace/heal semantics as SetLinkProfile apply per direction.
func (n *Network) SetLinkProfileDir(a, b topology.DeviceID, p LinkProfile) {
	p.validate()
	n.installProfile(n.top.MarkLinkDir(a, b), p)
}

func (n *Network) installProfile(bit int, p LinkProfile) {
	for len(n.profiles) <= bit {
		n.profiles = append(n.profiles, LinkProfile{})
	}
	n.profiles[bit] = p
	n.hasFaults = false
	for _, q := range n.profiles {
		if q.adversarial() {
			n.hasFaults = true
			break
		}
	}
}

// compose folds the profiles of every marked link on a delivery path over
// the network-wide defaults. Probabilities compose as independent events
// (1-(1-a)(1-b)); jitter takes the maximum fraction. There are no
// network-wide byte-fault defaults, since damage is always per-link, so the
// byte-fault fields stay zero unless an installed profile injects some
// (hasFaults): a run without one draws nothing for them.
func (n *Network) compose(marks topology.MarkSet) LinkProfile {
	c := LinkProfile{Loss: n.loss, Jitter: n.jitter, Dup: n.dup}
	lo, hi := marks.Words()
	for m := lo; m != 0; m &= m - 1 {
		n.composeBit(bits.TrailingZeros64(m), &c)
	}
	for w, word := range hi {
		for m := word; m != 0; m &= m - 1 {
			n.composeBit(64*(w+1)+bits.TrailingZeros64(m), &c)
		}
	}
	return c
}

func (n *Network) composeBit(bit int, c *LinkProfile) {
	if bit >= len(n.profiles) {
		return
	}
	p := &n.profiles[bit]
	c.Loss = either(c.Loss, p.Loss)
	c.Dup = either(c.Dup, p.Dup)
	c.Jitter = max(c.Jitter, p.Jitter)
	c.Corrupt = either(c.Corrupt, p.Corrupt)
	c.Truncate = either(c.Truncate, p.Truncate)
	c.Replay = either(c.Replay, p.Replay)
	c.Stale = either(c.Stale, p.Stale)
}

// either is the probability of at least one of two independent events.
func either(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// faults is the composed byte-fault probability vector a delivery carries
// to its arrival.
type faults struct {
	corrupt, truncate, replay, stale float64
}

// Endpoint returns the endpoint of host h.
func (n *Network) Endpoint(h topology.HostID) *Endpoint { return n.eps[h] }

// TotalStats aggregates stats across all endpoints.
func (n *Network) TotalStats() Stats {
	var s Stats
	for _, ep := range n.eps {
		s.add(ep.stats)
	}
	return s
}

// WANBytes returns the number of bytes carried across data-center
// boundaries so far (the quantity the proxy protocol minimizes).
func (n *Network) WANBytes() uint64 {
	var total uint64
	for _, w := range n.lps.wan {
		total += w
	}
	return total
}

// ResetStats zeroes every endpoint counter and the WAN byte counter; used
// to discard warm-up traffic before a measurement window.
func (n *Network) ResetStats() {
	for _, ep := range n.eps {
		ep.stats = Stats{}
	}
	clear(n.lps.wan)
}

// replayRingSize bounds how many recently delivered packets an endpoint
// remembers for replay injection; replayRecency bounds how old a remembered
// packet may be before it is no longer replayed, and staleDelayMax bounds
// how late a stale re-delivery may arrive. Both time bounds sit well under
// the protocols' tombstone TTLs, so a replayed or stale datagram is always
// one the hardened receive paths must reject by sequence state, not one so
// ancient that garbage collection already forgot the victim.
const (
	replayRingSize = 8
	replayRecency  = 2 * time.Second
	staleDelayMax  = 2 * time.Second
)

// recentPkt is one replay-ring entry: a packet exactly as it was handed to
// the handler, holding its record, plus its delivery time.
type recentPkt struct {
	pkt Packet
	at  time.Duration
}

// Endpoint is one host's attachment to the network.
type Endpoint struct {
	net *Network
	// eng is the engine of the endpoint's LP, lp, which it sends and receives
	// on; a serial network's one LP is driven by the engine given to New.
	eng     *sim.Engine
	lp      int32
	id      topology.HostID
	up      bool
	subs    map[ChannelID]bool
	handler Handler
	stats   Stats
	// pubSubs is the subscription snapshot other LPs read when rebuilding
	// multicast fan-outs; the owner republishes it at window boundaries
	// (subDirty tracks whether that is pending). Nil until first published,
	// and never published on a one-LP network, which has no other LP.
	pubSubs  map[ChannelID]bool
	subDirty bool
	// filter, when set, can veto delivery of a packet to this endpoint;
	// used by tests to inject targeted losses.
	filter func(pkt Packet) bool
	// grayLag, when positive, adds a seeded uniform [0, grayLag) processing
	// delay to every send from and delivery to this endpoint: the host is
	// alive but limping (a gray failure), without ever going down.
	grayLag time.Duration
	// recent is the replay ring, recorded only while adversarial profiles
	// are installed somewhere on the network.
	recent     [replayRingSize]recentPkt
	recentUsed int
	recentNext int
}

// ID returns the host ID.
func (ep *Endpoint) ID() topology.HostID { return ep.id }

// Stats returns a copy of this endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// SetHandler installs the packet delivery callback.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// SetFilter installs a delivery veto; a false return drops the packet.
func (ep *Endpoint) SetFilter(f func(pkt Packet) bool) { ep.filter = f }

// SetGrayLag puts the endpoint into (or out of, with 0) gray-failure mode:
// every packet it sends or receives is delayed by an independent seeded
// uniform draw from [0, max). The daemon stays up and keeps answering —
// just late, which is exactly the failure mode timeout-based detectors
// struggle to classify.
func (ep *Endpoint) SetGrayLag(max time.Duration) {
	if max < 0 {
		panic(fmt.Sprintf("netsim: negative gray lag %v", max))
	}
	ep.grayLag = max
}

// GrayLag returns the endpoint's current gray-failure lag bound (0 when
// healthy).
func (ep *Endpoint) GrayLag() time.Duration { return ep.grayLag }

// NoteReject counts a protocol-layer discard of a received packet
// (malformed bytes, stale sequence, replayed datagram). Implements
// Transport.
func (ep *Endpoint) NoteReject() { ep.stats.Rejected++ }

// Scratch lends the scratch buffer of the worker that runs the endpoint's
// LP. Implements Transport.
func (ep *Endpoint) Scratch() *[]byte {
	l := ep.net.lps
	return &l.scratch[l.pools[ep.lp].bucket]
}

// SetUp marks the endpoint up or down. A down endpoint neither sends nor
// receives; this models killing the membership daemon.
func (ep *Endpoint) SetUp(up bool) { ep.up = up }

// Join subscribes the endpoint to a multicast channel.
func (ep *Endpoint) Join(ch ChannelID) {
	if !ep.subs[ch] {
		ep.subs[ch] = true
		ep.noteSubChange()
	}
}

// Leave unsubscribes from a channel.
func (ep *Endpoint) Leave(ch ChannelID) {
	if ep.subs[ch] {
		delete(ep.subs, ch)
		ep.noteSubChange()
	}
}

// noteSubChange invalidates fan-out caches after a Join/Leave: it bumps the
// owner LP's epoch (its own senders see the change immediately) and queues
// the endpoint for snapshot publication at the next window boundary (remote
// senders see it then — within one lookahead, i.e. less than one cross-LP
// network hop).
func (ep *Endpoint) noteSubChange() {
	l := ep.net.lps
	l.subEpoch[ep.lp]++
	if !ep.subDirty {
		ep.subDirty = true
		l.dirty[ep.lp] = append(l.dirty[ep.lp], ep)
	}
}

// Joined reports whether the endpoint is subscribed to ch.
func (ep *Endpoint) Joined(ch ChannelID) bool { return ep.subs[ch] }

// Multicast sends payload on a channel with the given TTL, copying it (see
// Transport) into one buffer from the sender's free lists, which every copy
// views; a copy bound for another LP holds it from the outbox until a
// boundary gives the hold back (deliverOnce, DrainCross). The copies go out
// through send, over the cached fan-out.
func (ep *Endpoint) Multicast(ch ChannelID, ttl int, payload []byte) {
	if !ep.up {
		return
	}
	tail := wire.Padding(payload)
	ep.stats.PktsSent++
	ep.stats.BytesSent += uint64(len(payload) + tail + UDPOverhead)
	f := ep.fanoutFor(ch, ttl)
	if len(f.dsts) == 0 {
		return
	}
	b := ep.newBuf(payload, tail)
	ep.send(Packet{Src: ep.id, Dst: topology.NoHost, Channel: ch, TTL: ttl, Payload: b.b, buf: b}, f, nil, 0)
}

// UnicastAll sends payload to every host of dsts, in order, and is exactly
// one Unicast per host: the same counts, WAN bytes, draws, handler order and
// Engine.Steps, and each copy addressed to its own host. It takes one buffer
// for the copies that stay on the sender's LP, and a buffer of its own for a
// copy bound for another LP, which changes hands at the boundary as a
// Unicast's does. The reachable hosts are listed in the LP's scratch fan-out
// and go out through send, as a multicast's receivers do.
func (ep *Endpoint) UnicastAll(dsts []topology.HostID, payload []byte) {
	if !ep.up {
		return
	}
	n := ep.net
	tail := wire.Padding(payload)
	size := uint64(len(payload) + tail + UDPOverhead)
	f := &n.pool(ep.lp).fan
	f.dsts, f.lat, f.marks = f.dsts[:0], f.lat[:0], f.marks[:0]
	for _, h := range dsts {
		if int(h) < 0 || int(h) >= len(n.eps) {
			continue
		}
		ep.stats.PktsSent++
		ep.stats.BytesSent += size
		lat, marks := n.top.UnicastPath(ep.id, h)
		if lat < 0 {
			continue
		}
		if n.top.HostDC(ep.id) != n.top.HostDC(h) {
			ep.addWAN(size)
		}
		f.dsts = append(f.dsts, n.eps[h])
		f.lat = append(f.lat, lat)
		f.marks = append(f.marks, marks)
	}
	if len(f.dsts) > 0 {
		ep.send(Packet{Src: ep.id, Dst: f.dsts[0].id}, f, payload, tail)
	}
}

// send is the one send loop: it delivers pkt to the receivers of f, a
// multicast's cached fan-out or the scratch list of a UnicastAll. A multicast
// packet comes with its buffer; a unicast one is given payload and tail to
// copy, and each run is addressed to its first receiver (arrive addresses
// the others) and views the one buffer taken at the first copy that stays on
// the sender's LP, or, bound for another LP, a buffer of its own.
//
// The unit it schedules is a run: a maximal stretch of consecutive receivers
// whose copies the engine could not tell apart — same LP as the sender, same
// arrival instant, no marked link on the path (so loss is the network-wide
// figure and there are no byte faults) and no draw at send time (no
// duplication, no jitter, neither end gray). One pooled record and one engine
// event carry the whole run, and Fire does per receiver, in order, what a
// per-copy event would do. A receiver that joins no neighbour — and so every
// jittered, duplicated, gray, marked-path or cross-LP copy — goes through
// deliver as a Unicast does, and ends up a run of one in the same record
// under the same Fire.
//
// Runs change nothing a simulation can observe. Scheduled one by one, the k
// copies of a run would take k consecutive sequence numbers at one instant:
// no other event could ever fire between them, whatever their handlers
// schedule for that instant is numbered after all k either way, and
// Run/RunBefore stop between instants, never inside one. Taking one sequence
// number instead of k therefore keeps every relative order; the draws, all
// made at arrival on the engine both ends share, come in the same order; and
// Fire counts the run's length into Engine.Steps. A run never leaves the
// sender's LP, because arrival draws belong to the destination LP's engine:
// cross-LP copies travel through the outbox one by one (partition.go).
func (ep *Endpoint) send(pkt Packet, f *fanout, payload []byte, tail int) {
	n := ep.net
	drawless := n.dup == 0 && n.jitter == 0 && ep.grayLag == 0
	var shared *sendBuf
	for i := 0; i < len(f.dsts); {
		dst := f.dsts[i]
		j := i + 1
		if drawless && f.joins(i, ep.lp) {
			for j < len(f.dsts) && j-i != n.runCap && f.lat[j] == f.lat[i] && f.joins(j, ep.lp) {
				j++
			}
		}
		if !pkt.Multicast() {
			pkt.Dst = dst.id
			switch {
			case dst.lp != ep.lp:
				pkt.buf = ep.newBuf(payload, tail)
			case shared == nil:
				shared = ep.newBuf(payload, tail)
				fallthrough
			default:
				pkt.buf = shared
			}
			pkt.Payload = pkt.buf.b
		}
		if j-i > 1 {
			d := n.newDelivery(dst, pkt, n.loss, faults{})
			d.more = append(d.more, f.dsts[i+1:j]...)
			ep.eng.ScheduleCall(f.lat[i], d)
		} else {
			var marks topology.MarkSet
			if len(f.marks) > 0 {
				marks = f.marks[i]
			}
			ep.deliver(dst, pkt, f.lat[i], marks)
		}
		i = j
	}
}

// joins reports whether receiver i's copy can share a run with its
// neighbours when sent from LP lp: it stays on that LP, crosses no marked
// link and its receiver is not gray. (The sender-side conditions and the
// arrival instant are the caller's.)
func (f *fanout) joins(i int, lp int32) bool {
	dst := f.dsts[i]
	return dst.lp == lp && dst.grayLag == 0 && (len(f.marks) == 0 || f.marks[i].Empty())
}

// fanoutFor returns the endpoint's cached receiver set for one (channel, TTL),
// from its LP's cache, so the steady-state beat path skips both the topology
// scope lookup and the per-host subscription scan. It is rebuilt in place
// when fault injection has changed the topology epoch, or a Join/Leave the
// LP's subscription epoch or a boundary the published one. The rebuild
// preserves exactly the order a direct scope walk produces: scope order,
// filtered by subscription.
func (ep *Endpoint) fanoutFor(ch ChannelID, ttl int) *fanout {
	n, l, key := ep.net, ep.net.lps, fanKey{src: ep.id, ch: ch, ttl: ttl}
	fans, sub := l.fans[ep.lp], l.subEpoch[ep.lp]
	f := fans[key]
	epoch := n.top.Epoch()
	if f != nil && f.topEpoch == epoch && f.subEpoch == sub && f.pubEpoch == l.pubEpoch {
		return f
	}
	if f == nil {
		f = &fanout{}
		fans[key] = f
	}
	f.topEpoch, f.subEpoch, f.pubEpoch = epoch, sub, l.pubEpoch
	f.dsts, f.lat, f.marks = f.dsts[:0], f.lat[:0], f.marks[:0]
	scope := n.top.MulticastScope(ep.id, ttl)
	for i, h := range scope.Hosts {
		dst := n.eps[h]
		// A remote host is read through its published snapshot: its live
		// subs map belongs to another worker goroutine.
		subs := dst.subs
		if dst.lp != ep.lp {
			subs = dst.pubSubs
		}
		if !subs[ch] {
			continue
		}
		f.dsts = append(f.dsts, dst)
		f.lat = append(f.lat, scope.Latency[i])
		if scope.Marks != nil {
			f.marks = append(f.marks, scope.Marks[i])
		}
	}
	return f
}

// Unicast sends payload to a specific host. Returns false if the
// destination is unreachable (network partition) — like UDP, an unreachable
// destination is otherwise silent. An out-of-range destination (e.g. a host
// ID taken from a corrupted packet) is unreachable, not a panic. As with
// Multicast the payload is copied; a copy bound for another LP takes its
// count along, which only that LP touches from the boundary on.
func (ep *Endpoint) Unicast(dst topology.HostID, payload []byte) bool {
	if !ep.up {
		return false
	}
	if int(dst) < 0 || int(dst) >= len(ep.net.eps) {
		return false
	}
	size := uint64(len(payload) + wire.Padding(payload) + UDPOverhead)
	ep.stats.PktsSent++
	ep.stats.BytesSent += size
	lat, marks := ep.net.top.UnicastPath(ep.id, dst)
	if lat < 0 {
		return false
	}
	if ep.net.top.HostDC(ep.id) != ep.net.top.HostDC(dst) {
		ep.addWAN(size)
	}
	b := ep.newBuf(payload, int(size)-len(payload)-UDPOverhead)
	ep.deliver(ep.net.eps[dst], Packet{Src: ep.id, Dst: dst, Payload: b.b, buf: b}, lat, marks)
	return true
}

// addWAN counts size bytes sent across data centers, on the sender's LP.
func (ep *Endpoint) addWAN(size uint64) { ep.net.lps.wan[ep.lp] += size }

func (ep *Endpoint) deliver(dst *Endpoint, pkt Packet, latency time.Duration, marks topology.MarkSet) {
	// An unmarked path, nearly every delivery, keeps the network-wide
	// defaults without the call: it would cost a unicast a seventh more.
	n := ep.net
	p := LinkProfile{Loss: n.loss, Jitter: n.jitter, Dup: n.dup}
	if !marks.Empty() {
		p = n.compose(marks)
	}
	fl := faults{p.Corrupt, p.Truncate, p.Replay, p.Stale}
	if p.Dup > 0 && ep.eng.Rand().Float64() < p.Dup {
		// The duplicate takes its own (jittered) path.
		extra := latency + time.Duration(ep.eng.Rand().Int63n(int64(time.Millisecond)))
		ep.deliverOnce(dst, pkt, extra, p.Loss, p.Jitter, fl)
	}
	ep.deliverOnce(dst, pkt, latency, p.Loss, p.Jitter, fl)
}

func (ep *Endpoint) deliverOnce(dst *Endpoint, pkt Packet, latency time.Duration, loss, jitter float64, fl faults) {
	n := ep.net
	if jitter > 0 && latency > 0 {
		f := 1 + jitter*(2*ep.eng.Rand().Float64()-1)
		latency = time.Duration(float64(latency) * f)
	}
	// Gray-failure lag: a limping sender emits late, a limping receiver
	// processes late. Drawn at send time (like jitter), and only when a
	// lag is configured, so healthy runs consume no extra randomness.
	// (dst.grayLag may belong to a remote LP, but it only changes between
	// windows, when no worker goroutine is running.)
	if ep.grayLag > 0 {
		latency += time.Duration(ep.eng.Rand().Int63n(int64(ep.grayLag)))
		ep.stats.GrayDelayed++
	}
	grayDst := false
	if dst.grayLag > 0 {
		latency += time.Duration(ep.eng.Rand().Int63n(int64(dst.grayLag)))
		grayDst = true
	}
	if dst.lp != ep.lp {
		// Cross-LP: park the fully-drawn delivery in the sender's outbox;
		// the boundary exchange schedules it on the destination engine.
		// The receiver counts GrayDelayed at arrival (d.gray) because its
		// stats belong to another worker here. A multicast copy holds the
		// sender's buffer until its receiving LP gives the hold back; a
		// unicast's buffer changes hands at the boundary.
		if pkt.Multicast() {
			pkt.buf.refs++
		}
		out := n.lps.out[ep.lp]
		b := int(dst.lp) % n.lps.buckets
		out[b] = append(out[b], outMsg{
			at: ep.eng.Now() + latency, dst: dst, pkt: pkt,
			loss: loss, fl: fl, gray: grayDst,
		})
		return
	}
	if grayDst {
		dst.stats.GrayDelayed++
	}
	ep.eng.ScheduleCall(latency, n.newDelivery(dst, pkt, loss, fl))
}

// delivery is a pooled in-flight run: one packet on its way to one or more
// receivers of one LP at one instant, with one loss figure and one byte-fault
// vector (see Endpoint.send; a Unicast or any copy that needed a draw of its
// own is a run of one). The engine fires it at arrival time via the Callback
// interface, so the send path allocates nothing per packet (no closure, no
// timer handle). Instances are recycled through the free list of the
// receivers' LP once the last copy has arrived.
type delivery struct {
	dst *Endpoint // the first receiver; of most records the only one
	// more holds the rest of a run in the record's own buffer, filled at send
	// time and kept across reuse: the fan-out it was copied from is rebuilt
	// in place by the next Join/Leave or topology fault, possibly before the
	// run arrives.
	more  []*Endpoint
	pkt   Packet
	loss  float64
	fl    faults
	gray  bool      // cross-LP delivery to a gray endpoint: count at arrival
	stale bool      // set on the bounded re-delivery of a stale fault
	next  *delivery // free-list link
}

// pools are one LP's free lists of delivery records, send buffers, loose
// records and the decoders records borrow, touched only by that LP's
// goroutine, and the holds it gives back, which a boundary settles. The loose
// and decoder lists keep at most one entry per endpoint of the LP. A packet
// is in flight for a path latency, far under a beat period, so an LP's steady
// state has fewer of either in use than endpoints; a deeper list is what a
// burst such as a cold boot left behind (tens of thousands of multicasts in
// flight on tree-churn), and is let go, not kept live.
type pools struct {
	del    *delivery
	loose  []*sendBuf
	decs   []*wire.Decoder
	hosts  int                        // the LP's endpoints: the most loose records, and decoders, kept
	bufs   [bufClasses + 1][]*sendBuf // the last, for larger payloads, stays empty
	low    [bufClasses + 1]int        // each list's shortest since the last trim
	bytes  int                        // the capacity of the free buffers
	trimAt time.Duration              // when the buffer lists are trimmed next
	// back[b] lists the holds on other LPs' buffers that this LP's loose
	// records let go of, for the worker of exchange bucket b, which owns the
	// buffers' LPs, to settle at the next boundary (DrainCross); bucket is
	// this LP's own. Only loose records list any, so a one-LP network never
	// does.
	back   [][]hold
	bucket int
	// fan is the scratch receiver list a UnicastAll fills and sends over.
	fan fanout
}

// hold is n holds on a multicast's buffer, given back by a loose record.
type hold struct {
	buf *sendBuf
	n   int32
}

// decoder lends a decoder to a record of the LP.
func (p *pools) decoder() *wire.Decoder {
	if n := len(p.decs); n > 0 {
		d := p.decs[n-1]
		p.decs = p.decs[:n-1]
		return d
	}
	return new(wire.Decoder)
}

// pool returns the free lists of LP lp.
func (n *Network) pool(lp int32) *pools { return &n.lps.pools[lp] }

// newBuf copies payload into a buffer from the free lists of the endpoint's
// LP, with the packet's tail and no holders yet.
func (ep *Endpoint) newBuf(payload []byte, tail int) *sendBuf {
	p, c := ep.net.pool(ep.lp), bufClass(len(payload))
	if now := ep.eng.Now(); now >= p.trimAt {
		p.trim(now)
	}
	var b *sendBuf
	if l := len(p.bufs[c]) - 1; l >= 0 {
		b, p.bufs[c][l], p.bufs[c] = p.bufs[c][l], nil, p.bufs[c][:l]
		p.bytes, p.low[c] = p.bytes-cap(b.b), min(p.low[c], l)
	} else {
		size := len(payload)
		if c < bufClasses {
			size = bufMin << c
		}
		b = &sendBuf{b: make([]byte, 0, size), pool: p}
	}
	b.b, b.tail = append(b.b[:0], payload...), tail
	return b
}

// newLoose wraps copies of a multicast that crossed into the LP in a loose
// record from the LP's list, viewing the sender's buffer and its tail, with
// no holds yet.
func (p *pools) newLoose(origin *sendBuf) *sendBuf {
	var b *sendBuf
	if l := len(p.loose) - 1; l >= 0 {
		b, p.loose[l], p.loose = p.loose[l], nil, p.loose[:l]
	} else {
		b = &sendBuf{pool: p}
	}
	b.b, b.tail, b.origin = origin.b, origin.tail, origin
	return b
}

// release drops one holder of b, if any.
func (b *sendBuf) release() {
	if b != nil {
		b.drop(1)
	}
}

// drop lets go of n holders of b. The last one clears its decode down to the
// views its decoder's targets hold (a snapshot's records, a gossip view's),
// so an idle record pins no packet, and returns record and decoder to the
// lists of the LP holding them: a loose record to its own list, listing its
// holds to give back, a buffer to its size class while the lists are under
// budget.
func (b *sendBuf) drop(n int32) {
	if b.refs -= n; b.refs > 0 {
		return
	}
	p := b.pool
	if b.dec != nil {
		b.dec.Forget()
		if len(p.decs) < p.hosts {
			p.decs = append(p.decs, b.dec)
		}
	}
	b.msg, b.err, b.dec = nil, nil, nil
	if o := b.origin; o != nil {
		k := o.pool.bucket
		p.back[k] = append(p.back[k], hold{o, b.holds})
		b.b, b.origin, b.holds = nil, nil, 0
		if len(p.loose) < p.hosts {
			p.loose = append(p.loose, b)
		}
		return
	}
	if raceflag.Enabled {
		for i := range b.b {
			b.b[i] = scribble
		}
	}
	if c := bufClass(cap(b.b)); c < bufClasses && p.bytes+cap(b.b) <= bufBudget {
		p.bufs[c], p.bytes = append(p.bufs[c], b), p.bytes+cap(b.b)
	}
}

// trim lets go of the oldest buffers of each list, as many as lay unused
// since the last trim.
func (p *pools) trim(now time.Duration) {
	p.trimAt = now + bufTrim
	for c, l := range p.bufs {
		k := copy(l, l[p.low[c]:])
		clear(l[k:])
		p.bufs[c], p.low[c], p.bytes = l[:k], k, p.bytes-p.low[c]*(bufMin<<c)
	}
}

// newDelivery takes a record from the receiver's pool and fills it as a run
// of one, counted among the holders of the packet's record; the caller
// schedules it on the receiver's engine.
func (n *Network) newDelivery(dst *Endpoint, pkt Packet, loss float64, fl faults) *delivery {
	p := n.pool(dst.lp)
	d := p.del
	if d != nil {
		p.del = d.next
		d.next = nil
	} else {
		d = &delivery{}
	}
	d.dst, d.pkt, d.loss, d.fl = dst, pkt, loss, fl
	pkt.buf.refs++
	return d
}

// releaseDelivery returns a record to its pool, letting go of the packet's.
func (n *Network) releaseDelivery(d *delivery) {
	p, b := n.pool(d.dst.lp), d.pkt.buf
	*d = delivery{more: d.more[:0], next: p.del}
	p.del = d
	b.release()
}

// Fire implements sim.Callback: it is the arrival half of a send. The
// receivers are walked in fan-out order, each copy counted as the engine
// event it stands for; handlers send more packets while the walk is under
// way, so the record stays out of the pool until the last copy is done.
func (d *delivery) Fire() {
	first := d.dst
	first.eng.AddSteps(len(d.more))
	d.arrive(first)
	for _, dst := range d.more {
		d.arrive(dst)
	}
	first.net.releaseDelivery(d)
}

// arrive delivers one copy of the run to dst. Everything is checked and
// drawn now, at arrival, per copy: an earlier receiver's handler may have
// taken this one down or unsubscribed it.
func (d *delivery) arrive(dst *Endpoint) {
	n, eng, pkt, fl := dst.net, dst.eng, d.pkt, d.fl
	if d.gray {
		dst.stats.GrayDelayed++
	}
	if !dst.up {
		return
	}
	if !pkt.Multicast() {
		pkt.Dst = dst.id // a unicast run's record names only its first receiver
	} else if !dst.subs[pkt.Channel] {
		// Unsubscribed between send and delivery.
		return
	}
	if d.stale {
		dst.stats.Stale++
		dst.receive(pkt)
		return
	}
	// Loss is drawn at delivery time, dup/jitter at send time; this
	// draw order is part of the deterministic-replay contract and
	// must not change (documented sweep outputs depend on it). The
	// byte-fault draws below likewise happen at delivery time, in the
	// fixed order corrupt → truncate → (handler) → replay → stale —
	// and only when the composed probability is nonzero, so scenarios
	// without adversarial profiles replay bit-identically. All draws
	// come from the engine the delivery fires on: the receiver's LP's.
	if d.loss > 0 && eng.Rand().Float64() < d.loss {
		dst.stats.Dropped++
		return
	}
	if dst.filter != nil && !dst.filter(pkt) {
		dst.stats.Dropped++
		return
	}
	if fl.corrupt > 0 && eng.Rand().Float64() < fl.corrupt {
		dst.own(&pkt, d.pkt.buf) // tampered bytes do not share the clean parse
		pkt.corrupt(eng.Rand())
		dst.stats.Corrupted++
	}
	if fl.truncate > 0 && eng.Rand().Float64() < fl.truncate {
		dst.own(&pkt, d.pkt.buf)
		pkt.truncate(eng.Rand())
		dst.stats.Truncated++
	}
	dst.receive(pkt)
	if n.hasFaults {
		dst.recordRecent(pkt, eng.Now())
	}
	if fl.replay > 0 && eng.Rand().Float64() < fl.replay {
		if old, ok := dst.pickRecent(eng.Now(), eng); ok {
			dst.stats.Replayed++
			dst.receive(old)
		}
	}
	if fl.stale > 0 && eng.Rand().Float64() < fl.stale {
		extra := time.Duration(1 + eng.Rand().Int63n(int64(staleDelayMax)))
		sd := n.newDelivery(dst, pkt, 0, faults{})
		sd.stale = true
		eng.ScheduleCall(extra, sd)
	}
	if pkt.buf != d.pkt.buf {
		pkt.buf.release() // the copy own made
	}
}

// own gives pkt bytes of its own before a byte fault damages them in place:
// a copy into a buffer from the receiving LP's free lists, with the packet's
// tail, held by the arrival. shared is the delivery's record; a packet that
// holds another one owns its bytes already.
func (ep *Endpoint) own(pkt *Packet, shared *sendBuf) {
	if pkt.buf != shared {
		return
	}
	b := ep.newBuf(pkt.Payload, pkt.tail())
	b.refs = 1
	pkt.Payload, pkt.buf = b.b, b
}

// receive accounts and hands one packet (original, replayed, or stale) to
// the handler.
func (ep *Endpoint) receive(pkt Packet) {
	ep.stats.PktsRecv++
	ep.stats.BytesRecv += uint64(pkt.WireSize())
	if pkt.Multicast() {
		ep.stats.MulticastCopies++
	}
	if ep.handler != nil {
		ep.handler(pkt)
	}
}

// recordRecent remembers a delivered packet for replay injection, holding its
// record until the slot is overwritten. Replayed and stale copies are
// themselves never recorded (they arrive via receive directly), so replay
// cannot feed on its own output.
func (ep *Endpoint) recordRecent(pkt Packet, at time.Duration) {
	slot := &ep.recent[ep.recentNext]
	slot.pkt.buf.release()
	*slot = recentPkt{pkt: pkt, at: at}
	pkt.buf.refs++
	ep.recentNext = (ep.recentNext + 1) % replayRingSize
	if ep.recentUsed < replayRingSize {
		ep.recentUsed++
	}
}

// pickRecent selects, via the seeded RNG, one remembered packet delivered
// within the recency bound. Iteration order over the ring is fixed, so the
// choice is deterministic.
func (ep *Endpoint) pickRecent(now time.Duration, eng *sim.Engine) (Packet, bool) {
	cand := make([]int, 0, replayRingSize)
	for i := 0; i < ep.recentUsed; i++ {
		if now-ep.recent[i].at <= replayRecency {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return Packet{}, false
	}
	return ep.recent[cand[eng.Rand().Intn(len(cand))]].pkt, true
}

// corrupt flips one to four random bits of the packet's modelled length, in
// place: the caller gave the packet bytes of its own (Endpoint.own), since
// the delivery's bytes are shared with other copies and must not be damaged.
// The draws are the ones a materialised zero tail would take — the flip
// count, then an offset below len(Payload)+tail and a bit per flip — so a run
// makes the same draws whether its packets carry their pad or declare it.
//
// A flip that lands in the tail damages a byte the packet does not carry, so
// every flip is also XORed into a record of at most four (offset, bits)
// entries. A padded packet with an entry left nonzero (two flips of one bit
// cancel) is spoiled (wire.Spoil), and every decoder rejects it, as the
// carried format did: its checksum covered the body and the zero run, and the
// one header byte outside it, the type, made the zero run trailing bytes of
// whatever kind it named instead.
func (p *Packet) corrupt(r *rand.Rand) {
	tail := p.tail()
	n := len(p.Payload) + tail
	if n == 0 {
		return
	}
	var flips [4]struct {
		off  int
		bits byte
	}
	used := 0
	for k := 1 + r.Intn(4); k > 0; k-- {
		off, bit := r.Intn(n), byte(1)<<uint(r.Intn(8))
		if off < len(p.Payload) {
			p.Payload[off] ^= bit
		}
		i := 0
		for i < used && flips[i].off != off {
			i++
		}
		if i == used {
			flips[i].off = off
			used++
		}
		flips[i].bits ^= bit
	}
	damaged := false
	for _, f := range flips[:used] {
		damaged = damaged || f.bits != 0
	}
	if damaged && tail > 0 {
		wire.Spoil(p.Payload)
	}
}

// truncate cuts the packet to a prefix of its modelled length L, drawn
// uniformly from [0, L]: possibly all of it (a cut at the end, counted like
// any other) or none (zero-length datagrams are legal UDP). A cut at the end
// keeps the packet whole. Any other cut of a padded packet shortens what the
// body checksum covered — the zero run, or the body itself — so the kept
// prefix is spoiled, and the tail is what the cut left of it: WireSize is the
// cut plus UDPOverhead either way. Like corrupt, it works in place on bytes
// the packet owns.
func (p *Packet) truncate(r *rand.Rand) {
	tail := p.tail()
	k := r.Intn(len(p.Payload) + tail + 1)
	if k == len(p.Payload)+tail {
		return
	}
	keep := min(k, len(p.Payload))
	p.Payload = p.Payload[:keep]
	if tail > 0 {
		wire.Spoil(p.Payload)
	}
	p.buf.b, p.buf.tail = p.Payload, k-keep
}
