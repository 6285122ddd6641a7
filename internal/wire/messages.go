package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/membership"
)

// Type tags each packet. The tag values and each body's byte layout are
// specified in docs/WIRE.md §§2-4; the body methods below follow the spec's
// order.
type Type uint8

// Packet types.
const (
	TInvalid Type = iota
	// THeartbeat is the periodic per-group liveness announcement.
	THeartbeat
	// TUpdate carries membership change notifications plus piggybacked
	// recent updates for loss recovery.
	TUpdate
	// TBootstrapRequest asks a group leader for its directory.
	TBootstrapRequest
	// TDirectory is a full membership snapshot (bootstrap or sync reply).
	TDirectory
	// TSyncRequest asks a peer to resend its directory after an
	// unrecoverable update loss.
	TSyncRequest
	// TGossip is the gossip baseline's view exchange.
	TGossip
	// TProxySummary is the cross-data-center membership summary heartbeat.
	TProxySummary
	// TProxyUpdate is the incremental cross-data-center change message.
	TProxyUpdate
	// TServiceRequest / TServiceReply envelope application requests, used
	// for cross-data-center invocation through proxies.
	TServiceRequest
	TServiceReply
	// TLoadPoll / TLoadReply implement random-polling load balancing.
	TLoadPoll
	TLoadReply
	// TLoadReport is the pushed load dissemination of the interest-based
	// protocol layered above the membership service (§6.1: "propagate
	// load information only to interested nodes which have recently
	// seeked the service").
	TLoadReport
	// TDirQuery / TDirMatches are the daemon/client IPC of the membership
	// client library (§5): separate client processes query the daemon's
	// yellow page (the paper used a shared memory segment; this
	// implementation serves the same lookups over a local socket).
	TDirQuery
	TDirMatches
	// TRapidBeat .. TRapidSync are the Rapid-style stable membership
	// scheme's packets (Suresh et al.; docs/RAPID.md): direct-edge
	// monitoring beats over the K-ring overlay, per-edge alert reports into
	// the multi-node cut detector, join/view-change configuration messages,
	// and the leader's pre-eviction probe exchange.
	TRapidBeat
	TRapidInfo
	TRapidAlert
	TRapidJoin
	TRapidView
	TRapidProbe
	TRapidProbeAck
	TRapidSync
	// TRapidPropose / TRapidVote are the agreement round before a view
	// change commits: the proposer asks the old configuration to ratify an
	// eviction set, and members veto any evictee they can still hear.
	TRapidPropose
	TRapidVote
	// THandoff / TReform are the adaptive-hierarchy control messages
	// (docs/ADAPTIVE.md): an overloaded leader's abdication directive naming
	// the least-loaded successor, and the epoch-guarded re-formation round
	// that moves a cohort of members onto a different level-0 channel when a
	// group's live size drifts outside its configured bounds.
	THandoff
	TReform
)

// kind is one row of the kind table.
type kind struct {
	name string
	// fresh makes the target Decode parses a body into; nil for a tag that
	// is never sent.
	fresh func() Message
	// resident picks a Decoder's own target for the kind; nil for a kind a
	// Decoder parses into a fresh message, as Decode does.
	resident func(*Decoder) Message
}

// kinds is the one table of packet kinds, with a row for every value of the
// tag byte. Type.String, Decode and Decoder all read it; a tag whose row has
// no decode target is unknown. The resident rows are the kinds a receiver
// meets once per beat or per request: the per-group heartbeat and update
// stream, the directory and gossip views, rapid's per-edge beats and records,
// and the request path.
var kinds = [256]kind{
	TInvalid:          {"invalid", nil, nil},
	THeartbeat:        {"heartbeat", fresh[Heartbeat], func(d *Decoder) Message { return &d.hb }},
	TUpdate:           {"update", fresh[UpdateMsg], func(d *Decoder) Message { return &d.upd }},
	TBootstrapRequest: {"bootstrapreq", fresh[BootstrapRequest], nil},
	TDirectory:        {"directory", fresh[DirectoryView], func(d *Decoder) Message { return &d.dir }},
	TSyncRequest:      {"syncreq", fresh[SyncRequest], nil},
	TGossip:           {"gossip", fresh[GossipView], func(d *Decoder) Message { return &d.gossip }},
	TProxySummary:     {"proxysummary", fresh[ProxySummary], nil},
	TProxyUpdate:      {"proxyupdate", fresh[ProxyUpdate], nil},
	TServiceRequest:   {"svcreq", fresh[ServiceRequest], func(d *Decoder) Message { return &d.req }},
	TServiceReply:     {"svcreply", fresh[ServiceReply], func(d *Decoder) Message { return &d.reply }},
	TLoadPoll:         {"loadpoll", fresh[LoadPoll], func(d *Decoder) Message { return &d.poll }},
	TLoadReply:        {"loadreply", fresh[LoadReply], func(d *Decoder) Message { return &d.load }},
	TLoadReport:       {"loadreport", fresh[LoadReport], nil},
	TDirQuery:         {"dirquery", fresh[DirQuery], nil},
	TDirMatches:       {"dirmatches", fresh[DirMatches], nil},
	TRapidBeat:        {"rapidbeat", fresh[RapidBeat], func(d *Decoder) Message { return &d.beat }},
	TRapidInfo:        {"rapidinfo", fresh[RapidInfo], func(d *Decoder) Message { return &d.info }},
	TRapidAlert:       {"rapidalert", fresh[RapidAlert], nil},
	TRapidJoin:        {"rapidjoin", fresh[RapidJoin], nil},
	TRapidView:        {"rapidview", fresh[RapidView], nil},
	TRapidProbe:       {"rapidprobe", fresh[RapidProbe], nil},
	TRapidProbeAck:    {"rapidprobeack", fresh[RapidProbeAck], nil},
	TRapidSync:        {"rapidsync", fresh[RapidSync], nil},
	TRapidPropose:     {"rapidpropose", fresh[RapidPropose], nil},
	TRapidVote:        {"rapidvote", fresh[RapidVote], nil},
	THandoff:          {"handoff", fresh[Handoff], nil},
	TReform:           {"reform", fresh[Reform], nil},
}

// fresh makes a zero message of type T: the decode target of its kind.
func fresh[T any, M interface {
	*T
	Message
}]() Message {
	return M(new(T))
}

func (t Type) String() string {
	if name := kinds[t].name; name != "" {
		return name
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is implemented by every packet body.
type Message interface {
	wireType() Type
	// body states the body's layout once, for every direction: it moves
	// each field through c in wire order and returns c. The codec travels by
	// value because a pointer passed through this interface call would move
	// every Decode's and AppendEncode's codec to the heap.
	body(c codec) codec
}

// Encode serializes a message with the 8-byte packet header (magic,
// version, type, body CRC — see docs/WIRE.md §2). The checksum is computed
// over the encoded body and written into the header after encoding.
func Encode(m Message) []byte { return new(Encoder).AppendEncode(make([]byte, 0, 256), m) }

// header appends a packet header with a zero checksum to buf; seal fills in
// the checksum of the packet that starts at start, over the body after it.
func header(buf []byte, t Type) []byte {
	return append(buf, Magic&0xFF, Magic>>8, Version, uint8(t), 0, 0, 0, 0)
}

func seal(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+HeaderLen:], crcTable))
	return buf
}

// appendFramed appends a packet of type t whose body the layout body writes.
func appendFramed(dst []byte, t Type, body func(codec) codec) []byte {
	return seal(body(codec{reader: reader{buf: header(dst, t)}}).buf, len(dst))
}

// Encoder is the allocation-free encode path: AppendEncode writes into a
// caller-supplied buffer, byte-identical to Encode. A sender keeps one
// resident buffer and frames every packet into it: the network copies what it
// sends (netsim.Transport), so the buffer is free again when the send returns.
type Encoder struct{}

// AppendEncode appends the framed encoding of m to dst and returns the
// extended slice (reallocating like append when dst lacks capacity). With a
// warm dst this performs zero allocations per packet.
func (*Encoder) AppendEncode(dst []byte, m Message) []byte {
	c := m.body(codec{reader: reader{buf: header(dst, m.wireType())}})
	return seal(c.buf, len(dst))
}

// open checks the packet frame — magic, version, and the checksum over
// everything after the header — and leaves r at the first body byte. It is the
// one frame check: Decode and Decoder.Decode both start here.
func open(r *reader) (Type, error) {
	if r.u16() != Magic {
		return TInvalid, fmt.Errorf("wire: bad magic")
	}
	if v := r.u8(); v != Version {
		return TInvalid, fmt.Errorf("wire: unsupported version %d", v)
	}
	t := Type(r.u8())
	sum := r.u32()
	if r.err != nil {
		return TInvalid, r.err
	}
	if crc32.Checksum(r.buf[HeaderLen:], crcTable) != sum {
		return TInvalid, ErrChecksum
	}
	return t, nil
}

// TypeOf checks b's frame exactly as Decode does and returns its type tag,
// leaving the body unparsed: what a packet counter or a tracer needs.
func TypeOf(b []byte) (Type, error) {
	r := reader{buf: b}
	return open(&r)
}

// Padding returns the length of the inert tail b declares but does not carry:
// the pad field that ends a Heartbeat's, a RapidBeat's or a Gossip view's
// body (docs/WIRE.md §2). Every other kind declares none, and so does a frame
// that fails TypeOf's check: a cut or damaged packet has no trustworthy last
// field. The frame check only runs for the three padded kinds.
func Padding(b []byte) int {
	width := 0
	if len(b) >= HeaderLen {
		switch Type(b[3]) {
		case THeartbeat, TRapidBeat:
			width = 2
		case TGossip:
			width = 4
		}
	}
	if width == 0 || len(b) < HeaderLen+width {
		return 0
	}
	if _, err := TypeOf(b); err != nil {
		return 0
	}
	last := b[len(b)-width:]
	if width == 2 {
		return int(binary.LittleEndian.Uint16(last))
	}
	return int(binary.LittleEndian.Uint32(last))
}

// Spoil marks b as damaged somewhere it does not carry — in a declared tail,
// or by a cut through one. It writes the complement of the body's checksum
// into the header, so every frame check (Decode, TypeOf, Decoder)
// rejects b with ErrChecksum, as the checksum rejects damage to what it
// covers; spoiling twice still rejects. b must be the caller's own copy. A
// frame shorter than a header is left as it is: it fails the frame check
// already.
func Spoil(b []byte) {
	if len(b) >= HeaderLen {
		binary.LittleEndian.PutUint32(b[4:], ^crc32.Checksum(b[HeaderLen:], crcTable))
	}
}

// Decode parses a packet produced by Encode into a fresh message. It never
// panics and never reads past the input: any malformed, truncated, or damaged
// packet (including a body that fails the header checksum) yields an error.
// The byte payloads of ServiceRequest and ServiceReply are views of b, not
// copies (docs/WIRE.md §4).
func Decode(b []byte) (Message, error) { return decode(b, nil) }

// Decoder is the resident receive path: the same frame check and the same
// body methods as Decode, but the kinds a receiver meets once per beat or per
// request (the kind table's resident rows) are parsed into targets the
// decoder owns, so a steady stream of them decodes without allocating a
// message. An update message's list is the decoder's own as well: it reuses
// its array while the array has room. The slices and strings nested in its
// updates, and in every other kind, are still made fresh on every decode —
// directories keep them — and byte payloads and record lists are views of
// the packet, as Decode's are. A receiver that finishes with each packet
// before it decodes the next keeps one (the network lends one to each packet
// it parses); it is not safe for concurrent use.
type Decoder struct {
	hb     Heartbeat
	upd    UpdateMsg
	dir    DirectoryView
	gossip GossipView
	beat   RapidBeat
	info   RapidInfo
	req    ServiceRequest
	reply  ServiceReply
	poll   LoadPoll
	load   LoadReply
}

// Decode parses b exactly as the package-level Decode does, and returns the
// same message and the same error. A resident kind is parsed into the
// decoder's own target, an update message's list included, which is valid
// until the next call; what its fields refer to (fresh slices and strings,
// views of b) is not, and lives as long as b does. Any other kind is a fresh
// message.
func (d *Decoder) Decode(b []byte) (Message, error) { return decode(b, d) }

// Forget drops the views of packets the resident targets hold — request and
// reply payloads, snapshot and gossip record lists — so a decoder kept
// between packets does not keep those packets alive. The small fresh slices
// of its last decodes stay until they are overwritten, and so does the last
// request's service name, to be reused: zeroing every target instead costs a
// steady request stream a measurable share of its wall time.
func (d *Decoder) Forget() {
	d.req.Payload, d.reply.Payload = nil, nil
	d.dir.infos, d.gossip.entries = InfoList{}, InfoList{}
}

// decode checks b's frame and parses its body into d's resident target for
// the kind, or into a fresh one when d is nil or the kind has none.
func decode(b []byte, d *Decoder) (Message, error) {
	c := codec{reader: reader{buf: b}, dir: reading}
	t, err := open(&c.reader)
	if err != nil {
		return nil, err
	}
	var m Message
	switch k := &kinds[t]; {
	case d != nil && k.resident != nil:
		m = k.resident(d)
	case k.fresh != nil:
		m = k.fresh()
	default:
		return nil, fmt.Errorf("wire: unknown packet type %d", uint8(t))
	}
	c = m.body(c)
	if err := c.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- shared sub-layouts (docs/WIRE.md §3) ----

func (c *codec) id(v *membership.NodeID) { c.i32((*int32)(v)) }

func (c *codec) ids(s *[]membership.NodeID) {
	for i := range list(c, s) {
		c.id(&(*s)[i])
	}
}

func (c *codec) i32s(s *[]int32) {
	for i := range list(c, s) {
		c.i32(&(*s)[i])
	}
}

func (c *codec) kvs(s *[]membership.KV) {
	for i := range list(c, s) {
		c.str(&(*s)[i].Key)
		c.str(&(*s)[i].Value)
	}
}

// info is one member record: its fixed prefix, then what it publishes.
func (c *codec) info(m *membership.MemberInfo) {
	c.prefix(&m.Node, &m.Incarnation, &m.Version, &m.Beat)
	c.content(&m.Services, &m.Attrs)
}

// prefix and content are the two halves of a member record, the halves a
// Directory holds apart: its fixed 24-byte head and what it publishes.
func (c *codec) prefix(node *membership.NodeID, inc *uint32, version, beat *uint64) {
	c.id(node)
	c.u32(inc)
	c.u64(version)
	c.u64(beat)
}

func (c *codec) content(services *[]membership.ServiceDecl, attrs *[]membership.KV) {
	for i := range list(c, services) {
		s := &(*services)[i]
		c.str(&s.Name)
		c.i32s(&s.Partitions)
		c.kvs(&s.Params)
	}
	c.kvs(attrs)
}

// ---- heartbeat ----

// Heartbeat is the periodic announcement multicast within one membership
// group. Leader marks the sender as the group leader at this level (the
// "special flag" new nodes look for during bootstrap); Backup is the
// leader-designated backup, or NoNode.
type Heartbeat struct {
	Info   membership.MemberInfo
	Level  uint8
	Leader bool
	Backup membership.NodeID
	Seq    uint64
	// Pad declares an inert tail of Pad bytes that the packet does not carry:
	// the network accounts for it (Padding), so a heartbeat costs the paper's
	// configured size (it measures 228-byte and 1024-byte heartbeats).
	// Receivers ignore it.
	Pad uint16
}

func (*Heartbeat) wireType() Type { return THeartbeat }

func (h *Heartbeat) body(c codec) codec {
	c.info(&h.Info)
	c.u8(&h.Level)
	c.bool(&h.Leader)
	c.id(&h.Backup)
	c.u64(&h.Seq)
	c.u16(&h.Pad)
	return c
}

// ---- updates ----

// UpdateKind classifies a membership change.
type UpdateKind uint8

const (
	// UJoin announces a newly discovered node.
	UJoin UpdateKind = iota + 1
	// ULeave announces a detected failure or departure.
	ULeave
	// UChange announces new info for a live node.
	UChange
	// UDepart is a graceful departure announced by the departing node
	// itself: authoritative, so receivers remove the node even while its
	// final heartbeats are still fresh.
	UDepart
)

func (k UpdateKind) String() string {
	switch k {
	case UJoin:
		return "join"
	case ULeave:
		return "leave"
	case UChange:
		return "change"
	case UDepart:
		return "depart"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// UpdateID uniquely identifies one membership change event, so relaying is
// idempotent and loop-free.
type UpdateID struct {
	Origin  membership.NodeID // the detector that generated the update
	Counter uint32
}

// Update is one membership change.
type Update struct {
	ID      UpdateID
	Kind    UpdateKind
	Subject membership.NodeID
	Info    membership.MemberInfo // valid for UJoin/UChange
}

// UpdateMsg carries the newest update plus up to the last piggybackDepth
// previous updates from the same sender (paper §3.1.2, Message Loss
// Detection: "we let an update message piggyback last three updates").
// Seq is the per-sender update stream sequence number of Updates[0];
// Updates[i] has sequence Seq-i.
type UpdateMsg struct {
	Sender  membership.NodeID
	Seq     uint64
	Updates []Update
}

func (*UpdateMsg) wireType() Type { return TUpdate }

func (u *UpdateMsg) body(c codec) codec {
	c.id(&u.Sender)
	c.u64(&u.Seq)
	for i := range reuse(&c, &u.Updates) {
		up := &u.Updates[i]
		c.id(&up.ID.Origin)
		c.u32(&up.ID.Counter)
		c.u8((*uint8)(&up.Kind))
		if c.checking() && (up.Kind < UJoin || up.Kind > UDepart) {
			c.fail(fmt.Errorf("wire: invalid update kind %d", uint8(up.Kind)))
		}
		c.id(&up.Subject)
		hasInfo := up.Kind == UJoin || up.Kind == UChange
		flag := hasInfo
		c.bool(&flag)
		if c.checking() && flag != hasInfo {
			c.fail(fmt.Errorf("wire: update info flag inconsistent with kind %v", up.Kind))
		}
		if flag {
			c.info(&up.Info)
		}
	}
	return c
}

// ---- bootstrap / sync ----

// BootstrapRequest asks a group leader for its full directory when a node
// joins a group.
type BootstrapRequest struct {
	From  membership.NodeID
	Level uint8
}

func (*BootstrapRequest) wireType() Type { return TBootstrapRequest }

func (b *BootstrapRequest) body(c codec) codec {
	c.id(&b.From)
	c.u8(&b.Level)
	return c
}

// SyncRequest asks the sender of lost updates for a full directory.
type SyncRequest struct {
	From membership.NodeID
}

func (*SyncRequest) wireType() Type { return TSyncRequest }

func (s *SyncRequest) body(c codec) codec {
	c.id(&s.From)
	return c
}

// ---- proxy ----

// SummaryEntry is one service's availability in a data center: the paper's
// membership summary "only has the availability of service information,
// which is much smaller" than full machine details.
type SummaryEntry struct {
	Service    string
	Partitions []int32
	// Nodes is how many nodes serve this (service, partition set) — enough
	// for remote sides to know the service exists and roughly its capacity.
	Nodes int32
}

func (c *codec) summaries(s *[]SummaryEntry) {
	for i := range list(c, s) {
		e := &(*s)[i]
		c.str(&e.Service)
		c.i32s(&e.Partitions)
		c.i32(&e.Nodes)
	}
}

// ProxySummary is the cross-data-center heartbeat carrying (a chunk of) the
// sending data center's membership summary.
type ProxySummary struct {
	DC      uint16
	Seq     uint64
	Chunk   uint16
	NChunks uint16
	Entries []SummaryEntry
}

func (*ProxySummary) wireType() Type { return TProxySummary }

func (p *ProxySummary) body(c codec) codec {
	c.u16(&p.DC)
	c.u64(&p.Seq)
	c.u16(&p.Chunk)
	c.u16(&p.NChunks)
	c.summaries(&p.Entries)
	return c
}

// ProxyUpdate is the incremental cross-data-center change notification sent
// when a local status change alters the membership summary.
type ProxyUpdate struct {
	DC      uint16
	Seq     uint64
	Upserts []SummaryEntry
	Removes []string // service names no longer available
}

func (*ProxyUpdate) wireType() Type { return TProxyUpdate }

func (p *ProxyUpdate) body(c codec) codec {
	c.u16(&p.DC)
	c.u64(&p.Seq)
	c.summaries(&p.Upserts)
	for i := range list(&c, &p.Removes) {
		c.str(&p.Removes[i])
	}
	return c
}

// ---- service invocation ----

// ServiceRequest envelopes one application request, possibly relayed
// through proxies across data centers (Hops counts proxy relays to prevent
// forwarding loops).
type ServiceRequest struct {
	ReqID     uint64
	From      membership.NodeID
	Service   string
	Partition int32
	Hops      uint8
	Payload   []byte
}

func (*ServiceRequest) wireType() Type { return TServiceRequest }

func (s *ServiceRequest) body(c codec) codec {
	c.u64(&s.ReqID)
	c.id(&s.From)
	c.str(&s.Service)
	c.i32(&s.Partition)
	c.u8(&s.Hops)
	c.bytes(&s.Payload)
	return c
}

// ServiceReply carries the result of a ServiceRequest back along the same
// path.
type ServiceReply struct {
	ReqID   uint64
	OK      bool
	Payload []byte
}

func (*ServiceReply) wireType() Type { return TServiceReply }

func (s *ServiceReply) body(c codec) codec {
	c.u64(&s.ReqID)
	c.bool(&s.OK)
	c.bytes(&s.Payload)
	return c
}

// ---- load polling ----

// LoadPoll asks a provider for its instantaneous load (random polling load
// balancing, Shen et al., which the paper layers above the membership
// service).
type LoadPoll struct {
	From  membership.NodeID
	Token uint64
}

func (*LoadPoll) wireType() Type { return TLoadPoll }

func (l *LoadPoll) body(c codec) codec {
	c.id(&l.From)
	c.u64(&l.Token)
	return c
}

// LoadReply returns the provider's queue length.
type LoadReply struct {
	Token uint64
	Load  uint32
}

func (*LoadReply) wireType() Type { return TLoadReply }

func (l *LoadReply) body(c codec) codec {
	c.u64(&l.Token)
	c.u32(&l.Load)
	return c
}

// LoadReport is an unsolicited load sample pushed by a provider to the
// consumers that recently used it. Seq orders reports from one provider so
// reordered datagrams cannot regress the consumer's cache.
type LoadReport struct {
	From membership.NodeID
	Seq  uint64
	Load uint32
}

func (*LoadReport) wireType() Type { return TLoadReport }

func (l *LoadReport) body(c codec) codec {
	c.id(&l.From)
	c.u64(&l.Seq)
	c.u32(&l.Load)
	return c
}

// ---- directory IPC (daemon/client split of §5) ----

// DirQuery is a client's lookup_service request to the local membership
// daemon.
type DirQuery struct {
	// Service is an anchored regular expression over service names.
	Service string
	// Partition is "*" or a partition list spec.
	Partition string
}

func (*DirQuery) wireType() Type { return TDirQuery }

func (q *DirQuery) body(c codec) codec {
	c.str(&q.Service)
	c.str(&q.Partition)
	return c
}

// DirMatch is one matched machine in a DirMatches reply.
type DirMatch struct {
	Node       membership.NodeID
	Service    string
	Partitions []int32
	Params     []membership.KV
	Attrs      []membership.KV
}

// DirMatches is the daemon's reply to a DirQuery.
type DirMatches struct {
	OK      bool
	Error   string
	Matches []DirMatch
}

func (*DirMatches) wireType() Type { return TDirMatches }

func (m *DirMatches) body(c codec) codec {
	c.bool(&m.OK)
	c.str(&m.Error)
	for i := range list(&c, &m.Matches) {
		dm := &m.Matches[i]
		c.id(&dm.Node)
		c.str(&dm.Service)
		c.i32s(&dm.Partitions)
		c.kvs(&dm.Params)
		c.kvs(&dm.Attrs)
	}
	return c
}

// ---- rapid stable membership ----

// RapidBeat is the direct-edge liveness beat a subject unicasts to each of
// its K observers on the monitoring overlay. ConfigSeq names the
// configuration whose rings define the observer set; observers drop beats
// from other configurations. Pad declares an uncarried tail like
// Heartbeat.Pad.
type RapidBeat struct {
	From      membership.NodeID
	ConfigSeq uint64
	Inc       uint32 // sender incarnation (bumps on restart)
	Beat      uint64 // per-incarnation beat counter (freshness guard)
	Pad       uint16
}

func (*RapidBeat) wireType() Type { return TRapidBeat }

func (b *RapidBeat) body(c codec) codec {
	c.id(&b.From)
	c.u64(&b.ConfigSeq)
	c.u32(&b.Inc)
	c.u64(&b.Beat)
	c.u16(&b.Pad)
	return c
}

// RapidInfo disseminates one member's service/attribute record. Rapid's
// view changes only carry identity; the fat MemberInfo travels separately
// so beats stay small.
type RapidInfo struct {
	ConfigSeq uint64
	Info      membership.MemberInfo
}

func (*RapidInfo) wireType() Type { return TRapidInfo }

func (m *RapidInfo) body(c codec) codec {
	c.u64(&m.ConfigSeq)
	c.info(&m.Info)
	return c
}

// RapidAlert is one edge report into the multi-node cut detector: Observer
// stopped hearing Subject's beats (Down) or heard it again (Down=false).
// Seq orders alerts from one observer so re-deliveries and reorderings
// cannot flip a newer verdict back to an older one.
type RapidAlert struct {
	Observer  membership.NodeID
	Subject   membership.NodeID
	ConfigSeq uint64
	Seq       uint32
	Down      bool
}

func (*RapidAlert) wireType() Type { return TRapidAlert }

func (a *RapidAlert) body(c codec) codec {
	c.id(&a.Observer)
	c.id(&a.Subject)
	c.u64(&a.ConfigSeq)
	c.u32(&a.Seq)
	c.bool(&a.Down)
	return c
}

// RapidJoin asks a configuration member to sponsor the sender into the next
// view change. ConfigSeq is the joiner's latest known configuration (zero
// for a cold boot); Info is its full record so the admitting view can carry
// it.
type RapidJoin struct {
	From      membership.NodeID
	ConfigSeq uint64
	Info      membership.MemberInfo
}

func (*RapidJoin) wireType() Type { return TRapidJoin }

func (j *RapidJoin) body(c codec) codec {
	c.id(&j.From)
	c.u64(&j.ConfigSeq)
	c.info(&j.Info)
	return c
}

// RapidView installs configuration Seq atomically: Members is the complete
// sorted membership of the new configuration, and Infos carries records for
// members the receiver may not know yet (newly admitted joiners). Proposer
// breaks ties between rival proposals for the same Seq (lowest wins).
//
// Infos stays encoded on both sides: the sender appends its records to the
// list, and a decoded view's list is a validated view of the payload (a
// RapidView is a unicast, so nobody else holds it), which the receiver walks
// with a cursor and decodes only the records its freshness guard admits.
type RapidView struct {
	Seq      uint64
	Proposer membership.NodeID
	Members  []membership.NodeID
	Infos    InfoList
}

func (*RapidView) wireType() Type { return TRapidView }

func (v *RapidView) body(c codec) codec {
	c.u64(&v.Seq)
	c.id(&v.Proposer)
	c.ids(&v.Members)
	c.infos(&v.Infos, 0)
	return c
}

// RapidProbe is the proposer's direct pre-eviction liveness check on a cut
// subject: an accusation alone never evicts, the subject must also fail the
// proposer's own probes.
type RapidProbe struct {
	From  membership.NodeID
	Token uint64
}

func (*RapidProbe) wireType() Type { return TRapidProbe }

func (p *RapidProbe) body(c codec) codec {
	c.id(&p.From)
	c.u64(&p.Token)
	return c
}

// RapidProbeAck answers a RapidProbe; the echoed token pairs it with one
// outstanding probe so stale acks cannot vouch for a later accusation.
type RapidProbeAck struct {
	From  membership.NodeID
	Token uint64
}

func (*RapidProbeAck) wireType() Type { return TRapidProbeAck }

func (p *RapidProbeAck) body(c codec) codec {
	c.id(&p.From)
	c.u64(&p.Token)
	return c
}

// RapidSync asks a peer on a newer configuration to resend its current
// RapidView (sent when a beat or alert reveals the sender has fallen
// behind).
type RapidSync struct {
	From      membership.NodeID
	ConfigSeq uint64
}

func (*RapidSync) wireType() Type { return TRapidSync }

func (s *RapidSync) body(c codec) codec {
	c.id(&s.From)
	c.u64(&s.ConfigSeq)
	return c
}

// RapidPropose opens the ratification round for configuration Seq: the
// proposer names the members it intends to evict and the old configuration
// votes. Token pairs the votes with exactly this round — a re-proposal after
// the cut shifts rotates the token, so stragglers' votes for the old round
// cannot ratify the new one. Retransmissions of the same round reuse the
// token (votes are idempotent).
type RapidPropose struct {
	From  membership.NodeID
	Token uint64
	Seq   uint64 // the configuration the proposal would install
	Evict []membership.NodeID
}

func (*RapidPropose) wireType() Type { return TRapidPropose }

func (p *RapidPropose) body(c codec) codec {
	c.id(&p.From)
	c.u64(&p.Token)
	c.u64(&p.Seq)
	c.ids(&p.Evict)
	return c
}

// RapidVote answers a RapidPropose. OK ratifies the eviction set; otherwise
// Alive lists the proposed evictees the voter refuses to give up — members it
// is still hearing directly (or itself). A single veto aborts the round; a
// majority of the old configuration must ratify before the view commits, so
// a proposer cut off from the majority can never install anything.
type RapidVote struct {
	From  membership.NodeID
	Token uint64
	OK    bool
	Alive []membership.NodeID
}

func (*RapidVote) wireType() Type { return TRapidVote }

func (v *RapidVote) body(c codec) codec {
	c.id(&v.From)
	c.u64(&v.Token)
	c.bool(&v.OK)
	c.ids(&v.Alive)
	return c
}

// ---- adaptive hierarchy (docs/ADAPTIVE.md) ----

// Handoff is an overloaded leader's abdication directive: the sender gives
// up leadership of Level and names the least-loaded eligible member as its
// successor. Seq orders handoffs from one sender at one level so a
// replayed or reordered datagram cannot re-install a stale successor.
type Handoff struct {
	From      membership.NodeID
	Level     uint8
	Seq       uint64
	Successor membership.NodeID
}

func (*Handoff) wireType() Type { return THandoff }

func (h *Handoff) body(c codec) codec {
	c.id(&h.From)
	c.u8(&h.Level)
	c.u64(&h.Seq)
	c.id(&h.Successor)
	return c
}

// Reform is one group re-formation round: the initiating level-0 leader
// directs the listed movers onto a different level-0 channel — the upper
// half of an oversized group onto a fresh channel (split), or the whole of
// an undersized split-off group back onto its parent channel (merge).
// Epoch is monotone per group; receivers ignore rounds at or below the
// last epoch they acted on, so retransmissions and replays are idempotent.
type Reform struct {
	From       membership.NodeID
	Epoch      uint64
	NewChannel uint32
	Movers     []membership.NodeID // ascending
}

func (*Reform) wireType() Type { return TReform }

func (f *Reform) body(c codec) codec {
	c.id(&f.From)
	c.u64(&f.Epoch)
	c.u32(&f.NewChannel)
	c.ids(&f.Movers)
	return c
}
