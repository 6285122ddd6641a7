package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/membership"
)

// Type tags each packet. The tag values and each body's byte layout are
// specified in docs/WIRE.md §§2-4; the encodings below follow the spec's
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

func (t Type) String() string {
	names := [...]string{"invalid", "heartbeat", "update", "bootstrapreq", "directory",
		"syncreq", "gossip", "proxysummary", "proxyupdate", "svcreq", "svcreply",
		"loadpoll", "loadreply", "loadreport", "dirquery", "dirmatches",
		"rapidbeat", "rapidinfo", "rapidalert", "rapidjoin", "rapidview",
		"rapidprobe", "rapidprobeack", "rapidsync", "rapidpropose", "rapidvote",
		"handoff", "reform"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is implemented by every packet body.
type Message interface {
	wireType() Type
	enc(w *writer)
}

// Encode serializes a message with the 8-byte packet header (magic,
// version, type, body CRC — see docs/WIRE.md §2). The checksum is computed
// over the encoded body and written into the header after encoding.
func Encode(m Message) []byte {
	w := &writer{buf: make([]byte, 0, 256)}
	encodeInto(w, m)
	return w.buf
}

// encodeInto appends one framed packet (header + body + patched CRC) to w.
func encodeInto(w *writer, m Message) {
	start := w.header(m.wireType())
	m.enc(w)
	w.seal(start)
}

// header appends the packet header with a zero checksum and returns its
// offset; seal fills the checksum in once the body has been appended.
func (w *writer) header(t Type) (start int) {
	start = len(w.buf)
	w.u16(Magic)
	w.u8(Version)
	w.u8(uint8(t))
	w.u32(0)
	return start
}

func (w *writer) seal(start int) {
	binary.LittleEndian.PutUint32(w.buf[start+4:start+8], crc32.Checksum(w.buf[start+HeaderLen:], crcTable))
}

// Encoder is the reusable, allocation-free encode path: AppendEncode writes
// into a caller-supplied buffer, and the Encoder owns the scratch writer
// whose address would otherwise escape into the Message interface call and
// cost one heap allocation per packet. A long-lived sender keeps one Encoder
// (it is not safe for concurrent use) and recycles its output buffers; the
// framing is byte-identical to Encode.
type Encoder struct {
	w writer
}

// AppendEncode appends the framed encoding of m to dst and returns the
// extended slice (reallocating like append when dst lacks capacity). With a
// warm dst this performs zero allocations per packet.
func (e *Encoder) AppendEncode(dst []byte, m Message) []byte {
	e.w.buf = dst
	encodeInto(&e.w, m)
	buf := e.w.buf
	e.w.buf = nil // do not retain the caller's buffer
	return buf
}

// Sized is a message that knows the exact length of its encoded packet: the
// request-path kinds, whose senders allocate each packet once at its final
// size.
type Sized interface {
	Message
	EncodedLen() int
}

// EncodeSized frames m into a fresh buffer of exactly its encoded length —
// the one allocation a send has to make, since the network keeps the packet.
func (e *Encoder) EncodeSized(m Sized) []byte {
	return e.AppendEncode(make([]byte, 0, m.EncodedLen()), m)
}

// open checks the packet frame — magic, version, and the checksum over
// everything after the header — and leaves r at the first body byte. It is the
// one frame check: Decode and RequestDecoder.Decode both start here.
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

// Decode parses a packet produced by Encode. It never panics and never
// reads past the input: any malformed, truncated, or damaged packet
// (including a body that fails the header checksum) yields an error. The
// byte payloads of ServiceRequest and ServiceReply are views of b, not
// copies (docs/WIRE.md §4).
func Decode(b []byte) (Message, error) {
	r := &reader{buf: b}
	t, err := open(r)
	if err != nil {
		return nil, err
	}
	var m Message
	switch t {
	case THeartbeat:
		m = decHeartbeat(r)
	case TUpdate:
		m = decUpdateMsg(r)
	case TBootstrapRequest:
		m = decBootstrapRequest(r)
	case TDirectory:
		m = decDirectoryView(r)
	case TSyncRequest:
		m = decSyncRequest(r)
	case TGossip:
		m = decGossipView(r)
	case TProxySummary:
		m = decProxySummary(r)
	case TProxyUpdate:
		m = decProxyUpdate(r)
	case TServiceRequest:
		m = new(ServiceRequest).dec(r)
	case TServiceReply:
		m = new(ServiceReply).dec(r)
	case TLoadPoll:
		m = new(LoadPoll).dec(r)
	case TLoadReply:
		m = new(LoadReply).dec(r)
	case TLoadReport:
		m = decLoadReport(r)
	case TDirQuery:
		m = decDirQuery(r)
	case TDirMatches:
		m = decDirMatches(r)
	case TRapidBeat:
		m = decRapidBeat(r)
	case TRapidInfo:
		m = decRapidInfo(r)
	case TRapidAlert:
		m = decRapidAlert(r)
	case TRapidJoin:
		m = decRapidJoin(r)
	case TRapidView:
		m = decRapidView(r)
	case TRapidProbe:
		m = decRapidProbe(r)
	case TRapidProbeAck:
		m = decRapidProbeAck(r)
	case TRapidSync:
		m = decRapidSync(r)
	case TRapidPropose:
		m = decRapidPropose(r)
	case TRapidVote:
		m = decRapidVote(r)
	case THandoff:
		m = decHandoff(r)
	case TReform:
		m = decReform(r)
	default:
		return nil, fmt.Errorf("wire: unknown packet type %d", uint8(t))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// RequestDecoder is the resident receive path of the four request-path kinds
// — ServiceRequest, ServiceReply, LoadPoll, LoadReply — for a receiver that
// finishes with each packet before it looks at the next (the service
// runtime). It runs the same frame check and the same body parsers as Decode,
// into four targets it owns, so a steady request stream decodes without
// allocating: the byte payload is a view of the packet and the service name
// is re-made only when it differs from the previous request's.
type RequestDecoder struct {
	req   ServiceRequest
	reply ServiceReply
	poll  LoadPoll
	load  LoadReply
}

// Decode checks b's frame exactly as the package-level Decode does and
// returns its type. A request-path kind is parsed into the decoder's resident
// target and returned as m, valid until the next call (what its fields refer
// to — the payload view, the service string — stays valid for as long as b
// does). Any other kind is left unparsed, m == nil, for whoever consumes it.
func (d *RequestDecoder) Decode(b []byte) (t Type, m Message, err error) {
	r := reader{buf: b}
	if t, err = open(&r); err != nil {
		return TInvalid, nil, err
	}
	switch t {
	case TServiceRequest:
		m = d.req.dec(&r)
	case TServiceReply:
		m = d.reply.dec(&r)
	case TLoadPoll:
		m = d.poll.dec(&r)
	case TLoadReply:
		m = d.load.dec(&r)
	default:
		return t, nil, nil
	}
	if err := r.done(); err != nil {
		return TInvalid, nil, err
	}
	return t, m, nil
}

// ---- shared sub-encodings ----

func encKVs(w *writer, kvs []membership.KV) {
	w.u32(uint32(len(kvs)))
	for _, kv := range kvs {
		w.str(kv.Key)
		w.str(kv.Value)
	}
}

func decKVs(r *reader) []membership.KV {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	out := make([]membership.KV, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		v := r.str()
		out = append(out, membership.KV{Key: k, Value: v})
	}
	return out
}

func encInfo(w *writer, m membership.MemberInfo) {
	encPrefix(w, m.Prefix())
	encContent(w, m.Services, m.Attrs)
}

// encPrefix and encContent append the two halves of a member record, the
// halves a Directory holds apart: its fixed prefix and what it publishes.
func encPrefix(w *writer, p membership.InfoPrefix) {
	w.i32(int32(p.Node))
	w.u32(p.Incarnation)
	w.u64(p.Version)
	w.u64(p.Beat)
}

func encContent(w *writer, services []membership.ServiceDecl, attrs []membership.KV) {
	w.u32(uint32(len(services)))
	for _, s := range services {
		w.str(s.Name)
		w.u32(uint32(len(s.Partitions)))
		for _, p := range s.Partitions {
			w.i32(p)
		}
		encKVs(w, s.Params)
	}
	encKVs(w, attrs)
}

func decInfo(r *reader) membership.MemberInfo {
	var m membership.MemberInfo
	m.Node = membership.NodeID(r.i32())
	m.Incarnation = r.u32()
	m.Version = r.u64()
	m.Beat = r.u64()
	ns := r.sliceLen()
	if ns > 0 {
		m.Services = make([]membership.ServiceDecl, 0, ns)
	}
	for i := 0; i < ns && r.err == nil; i++ {
		var s membership.ServiceDecl
		s.Name = r.str()
		np := r.sliceLen()
		if np > 0 {
			s.Partitions = make([]int32, 0, np)
		}
		for j := 0; j < np && r.err == nil; j++ {
			s.Partitions = append(s.Partitions, r.i32())
		}
		s.Params = decKVs(r)
		m.Services = append(m.Services, s)
	}
	m.Attrs = decKVs(r)
	return m
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
	// Pad inflates the packet to emulate configured heartbeat sizes (the
	// paper measures 228-byte and 1024-byte heartbeats); receivers ignore
	// the content.
	Pad uint16
}

func (*Heartbeat) wireType() Type { return THeartbeat }

func (h *Heartbeat) enc(w *writer) {
	encInfo(w, h.Info)
	w.u8(h.Level)
	w.bool(h.Leader)
	w.i32(int32(h.Backup))
	w.u64(h.Seq)
	w.u16(h.Pad)
	w.zeros(int(h.Pad))
}

func decHeartbeat(r *reader) *Heartbeat {
	h := &Heartbeat{}
	h.Info = decInfo(r)
	h.Level = r.u8()
	h.Leader = r.bool()
	h.Backup = membership.NodeID(r.i32())
	h.Seq = r.u64()
	h.Pad = r.u16()
	r.take(int(h.Pad))
	return h
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

func (u *UpdateMsg) enc(w *writer) {
	w.i32(int32(u.Sender))
	w.u64(u.Seq)
	w.u32(uint32(len(u.Updates)))
	for _, up := range u.Updates {
		w.i32(int32(up.ID.Origin))
		w.u32(up.ID.Counter)
		w.u8(uint8(up.Kind))
		w.i32(int32(up.Subject))
		hasInfo := up.Kind == UJoin || up.Kind == UChange
		w.bool(hasInfo)
		if hasInfo {
			encInfo(w, up.Info)
		}
	}
}

func decUpdateMsg(r *reader) *UpdateMsg {
	u := &UpdateMsg{}
	u.Sender = membership.NodeID(r.i32())
	u.Seq = r.u64()
	n := r.sliceLen()
	if n > 0 {
		u.Updates = make([]Update, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var up Update
		up.ID.Origin = membership.NodeID(r.i32())
		up.ID.Counter = r.u32()
		up.Kind = UpdateKind(r.u8())
		if r.err == nil && (up.Kind < UJoin || up.Kind > UDepart) {
			r.fail(fmt.Errorf("wire: invalid update kind %d", uint8(up.Kind)))
		}
		up.Subject = membership.NodeID(r.i32())
		hasInfo := r.bool()
		if r.err == nil && hasInfo != (up.Kind == UJoin || up.Kind == UChange) {
			r.fail(fmt.Errorf("wire: update info flag inconsistent with kind %v", up.Kind))
		}
		if hasInfo {
			up.Info = decInfo(r)
		}
		u.Updates = append(u.Updates, up)
	}
	return u
}

// ---- bootstrap / sync ----

// BootstrapRequest asks a group leader for its full directory when a node
// joins a group.
type BootstrapRequest struct {
	From  membership.NodeID
	Level uint8
}

func (*BootstrapRequest) wireType() Type { return TBootstrapRequest }

func (b *BootstrapRequest) enc(w *writer) {
	w.i32(int32(b.From))
	w.u8(b.Level)
}

func decBootstrapRequest(r *reader) *BootstrapRequest {
	return &BootstrapRequest{From: membership.NodeID(r.i32()), Level: r.u8()}
}

// SyncRequest asks the sender of lost updates for a full directory.
type SyncRequest struct {
	From membership.NodeID
}

func (*SyncRequest) wireType() Type { return TSyncRequest }

func (s *SyncRequest) enc(w *writer) { w.i32(int32(s.From)) }

func decSyncRequest(r *reader) *SyncRequest {
	return &SyncRequest{From: membership.NodeID(r.i32())}
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

func encSummaryEntries(w *writer, entries []SummaryEntry) {
	w.u32(uint32(len(entries)))
	for _, e := range entries {
		w.str(e.Service)
		w.u32(uint32(len(e.Partitions)))
		for _, p := range e.Partitions {
			w.i32(p)
		}
		w.i32(e.Nodes)
	}
}

func decSummaryEntries(r *reader) []SummaryEntry {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	out := make([]SummaryEntry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var e SummaryEntry
		e.Service = r.str()
		np := r.sliceLen()
		if np > 0 {
			e.Partitions = make([]int32, 0, np)
		}
		for j := 0; j < np && r.err == nil; j++ {
			e.Partitions = append(e.Partitions, r.i32())
		}
		e.Nodes = r.i32()
		out = append(out, e)
	}
	return out
}

func (p *ProxySummary) enc(w *writer) {
	w.u16(p.DC)
	w.u64(p.Seq)
	w.u16(p.Chunk)
	w.u16(p.NChunks)
	encSummaryEntries(w, p.Entries)
}

func decProxySummary(r *reader) *ProxySummary {
	p := &ProxySummary{}
	p.DC = r.u16()
	p.Seq = r.u64()
	p.Chunk = r.u16()
	p.NChunks = r.u16()
	p.Entries = decSummaryEntries(r)
	return p
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

func (p *ProxyUpdate) enc(w *writer) {
	w.u16(p.DC)
	w.u64(p.Seq)
	encSummaryEntries(w, p.Upserts)
	w.u32(uint32(len(p.Removes)))
	for _, s := range p.Removes {
		w.str(s)
	}
}

func decProxyUpdate(r *reader) *ProxyUpdate {
	p := &ProxyUpdate{}
	p.DC = r.u16()
	p.Seq = r.u64()
	p.Upserts = decSummaryEntries(r)
	n := r.sliceLen()
	for i := 0; i < n && r.err == nil; i++ {
		p.Removes = append(p.Removes, r.str())
	}
	return p
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

func (s *ServiceRequest) enc(w *writer) {
	w.u64(s.ReqID)
	w.i32(int32(s.From))
	w.str(s.Service)
	w.i32(s.Partition)
	w.u8(s.Hops)
	w.u32(uint32(len(s.Payload)))
	w.buf = append(w.buf, s.Payload...)
}

func (s *ServiceRequest) dec(r *reader) *ServiceRequest {
	s.ReqID = r.u64()
	s.From = membership.NodeID(r.i32())
	s.Service = r.strReuse(s.Service)
	s.Partition = r.i32()
	s.Hops = r.u8()
	s.Payload = r.view()
	return s
}

// EncodedLen is the exact length of the packet Encode frames s into.
func (s *ServiceRequest) EncodedLen() int {
	return HeaderLen + 23 + min(len(s.Service), math.MaxUint16) + len(s.Payload)
}

// ServiceReply carries the result of a ServiceRequest back along the same
// path.
type ServiceReply struct {
	ReqID   uint64
	OK      bool
	Payload []byte
}

func (*ServiceReply) wireType() Type { return TServiceReply }

func (s *ServiceReply) enc(w *writer) {
	w.u64(s.ReqID)
	w.bool(s.OK)
	w.u32(uint32(len(s.Payload)))
	w.buf = append(w.buf, s.Payload...)
}

func (s *ServiceReply) dec(r *reader) *ServiceReply {
	s.ReqID = r.u64()
	s.OK = r.bool()
	s.Payload = r.view()
	return s
}

// EncodedLen is the exact length of the packet Encode frames s into.
func (s *ServiceReply) EncodedLen() int { return HeaderLen + 13 + len(s.Payload) }

// ---- load polling ----

// LoadPoll asks a provider for its instantaneous load (random polling load
// balancing, Shen et al., which the paper layers above the membership
// service).
type LoadPoll struct {
	From  membership.NodeID
	Token uint64
}

func (*LoadPoll) wireType() Type { return TLoadPoll }

func (l *LoadPoll) enc(w *writer) {
	w.i32(int32(l.From))
	w.u64(l.Token)
}

func (l *LoadPoll) dec(r *reader) *LoadPoll {
	l.From = membership.NodeID(r.i32())
	l.Token = r.u64()
	return l
}

// EncodedLen is the exact length of an encoded LoadPoll packet.
func (*LoadPoll) EncodedLen() int { return HeaderLen + 12 }

// LoadReply returns the provider's queue length.
type LoadReply struct {
	Token uint64
	Load  uint32
}

func (*LoadReply) wireType() Type { return TLoadReply }

func (l *LoadReply) enc(w *writer) {
	w.u64(l.Token)
	w.u32(l.Load)
}

func (l *LoadReply) dec(r *reader) *LoadReply {
	l.Token = r.u64()
	l.Load = r.u32()
	return l
}

// EncodedLen is the exact length of an encoded LoadReply packet.
func (*LoadReply) EncodedLen() int { return HeaderLen + 12 }

// LoadReport is an unsolicited load sample pushed by a provider to the
// consumers that recently used it. Seq orders reports from one provider so
// reordered datagrams cannot regress the consumer's cache.
type LoadReport struct {
	From membership.NodeID
	Seq  uint64
	Load uint32
}

func (*LoadReport) wireType() Type { return TLoadReport }

func (l *LoadReport) enc(w *writer) {
	w.i32(int32(l.From))
	w.u64(l.Seq)
	w.u32(l.Load)
}

// EncodedLen is the exact length of an encoded LoadReport packet.
func (*LoadReport) EncodedLen() int { return HeaderLen + 16 }

func decLoadReport(r *reader) *LoadReport {
	return &LoadReport{From: membership.NodeID(r.i32()), Seq: r.u64(), Load: r.u32()}
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

func (q *DirQuery) enc(w *writer) {
	w.str(q.Service)
	w.str(q.Partition)
}

func decDirQuery(r *reader) *DirQuery {
	return &DirQuery{Service: r.str(), Partition: r.str()}
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

func (m *DirMatches) enc(w *writer) {
	w.bool(m.OK)
	w.str(m.Error)
	w.u32(uint32(len(m.Matches)))
	for _, dm := range m.Matches {
		w.i32(int32(dm.Node))
		w.str(dm.Service)
		w.u32(uint32(len(dm.Partitions)))
		for _, p := range dm.Partitions {
			w.i32(p)
		}
		encKVs(w, dm.Params)
		encKVs(w, dm.Attrs)
	}
}

func decDirMatches(r *reader) *DirMatches {
	m := &DirMatches{}
	m.OK = r.bool()
	m.Error = r.str()
	n := r.sliceLen()
	for i := 0; i < n && r.err == nil; i++ {
		var dm DirMatch
		dm.Node = membership.NodeID(r.i32())
		dm.Service = r.str()
		np := r.sliceLen()
		for j := 0; j < np && r.err == nil; j++ {
			dm.Partitions = append(dm.Partitions, r.i32())
		}
		dm.Params = decKVs(r)
		dm.Attrs = decKVs(r)
		m.Matches = append(m.Matches, dm)
	}
	return m
}

// ---- rapid stable membership ----

// RapidBeat is the direct-edge liveness beat a subject unicasts to each of
// its K observers on the monitoring overlay. ConfigSeq names the
// configuration whose rings define the observer set; observers drop beats
// from other configurations. Pad emulates configured heartbeat sizes like
// Heartbeat.Pad.
type RapidBeat struct {
	From      membership.NodeID
	ConfigSeq uint64
	Inc       uint32 // sender incarnation (bumps on restart)
	Beat      uint64 // per-incarnation beat counter (freshness guard)
	Pad       uint16
}

func (*RapidBeat) wireType() Type { return TRapidBeat }

func (b *RapidBeat) enc(w *writer) {
	w.i32(int32(b.From))
	w.u64(b.ConfigSeq)
	w.u32(b.Inc)
	w.u64(b.Beat)
	w.u16(b.Pad)
	w.zeros(int(b.Pad))
}

func decRapidBeat(r *reader) *RapidBeat {
	b := &RapidBeat{}
	b.From = membership.NodeID(r.i32())
	b.ConfigSeq = r.u64()
	b.Inc = r.u32()
	b.Beat = r.u64()
	b.Pad = r.u16()
	r.take(int(b.Pad))
	return b
}

// RapidInfo disseminates one member's service/attribute record. Rapid's
// view changes only carry identity; the fat MemberInfo travels separately
// so beats stay small.
type RapidInfo struct {
	ConfigSeq uint64
	Info      membership.MemberInfo
}

func (*RapidInfo) wireType() Type { return TRapidInfo }

func (m *RapidInfo) enc(w *writer) {
	w.u64(m.ConfigSeq)
	encInfo(w, m.Info)
}

func decRapidInfo(r *reader) *RapidInfo {
	m := &RapidInfo{}
	m.ConfigSeq = r.u64()
	m.Info = decInfo(r)
	return m
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

func (a *RapidAlert) enc(w *writer) {
	w.i32(int32(a.Observer))
	w.i32(int32(a.Subject))
	w.u64(a.ConfigSeq)
	w.u32(a.Seq)
	w.bool(a.Down)
}

func decRapidAlert(r *reader) *RapidAlert {
	a := &RapidAlert{}
	a.Observer = membership.NodeID(r.i32())
	a.Subject = membership.NodeID(r.i32())
	a.ConfigSeq = r.u64()
	a.Seq = r.u32()
	a.Down = r.bool()
	return a
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

func (j *RapidJoin) enc(w *writer) {
	w.i32(int32(j.From))
	w.u64(j.ConfigSeq)
	encInfo(w, j.Info)
}

func decRapidJoin(r *reader) *RapidJoin {
	j := &RapidJoin{}
	j.From = membership.NodeID(r.i32())
	j.ConfigSeq = r.u64()
	j.Info = decInfo(r)
	return j
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

func (v *RapidView) enc(w *writer) {
	w.u64(v.Seq)
	w.i32(int32(v.Proposer))
	w.u32(uint32(len(v.Members)))
	for _, m := range v.Members {
		w.i32(int32(m))
	}
	v.Infos.enc(w)
}

func decRapidView(r *reader) *RapidView {
	v := &RapidView{}
	v.Seq = r.u64()
	v.Proposer = membership.NodeID(r.i32())
	n := r.sliceLen()
	if n > 0 {
		v.Members = make([]membership.NodeID, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		v.Members = append(v.Members, membership.NodeID(r.i32()))
	}
	v.Infos = decInfoList(r, 0)
	return v
}

// RapidProbe is the proposer's direct pre-eviction liveness check on a cut
// subject: an accusation alone never evicts, the subject must also fail the
// proposer's own probes.
type RapidProbe struct {
	From  membership.NodeID
	Token uint64
}

func (*RapidProbe) wireType() Type { return TRapidProbe }

func (p *RapidProbe) enc(w *writer) {
	w.i32(int32(p.From))
	w.u64(p.Token)
}

func decRapidProbe(r *reader) *RapidProbe {
	return &RapidProbe{From: membership.NodeID(r.i32()), Token: r.u64()}
}

// RapidProbeAck answers a RapidProbe; the echoed token pairs it with one
// outstanding probe so stale acks cannot vouch for a later accusation.
type RapidProbeAck struct {
	From  membership.NodeID
	Token uint64
}

func (*RapidProbeAck) wireType() Type { return TRapidProbeAck }

func (p *RapidProbeAck) enc(w *writer) {
	w.i32(int32(p.From))
	w.u64(p.Token)
}

func decRapidProbeAck(r *reader) *RapidProbeAck {
	return &RapidProbeAck{From: membership.NodeID(r.i32()), Token: r.u64()}
}

// RapidSync asks a peer on a newer configuration to resend its current
// RapidView (sent when a beat or alert reveals the sender has fallen
// behind).
type RapidSync struct {
	From      membership.NodeID
	ConfigSeq uint64
}

func (*RapidSync) wireType() Type { return TRapidSync }

func (s *RapidSync) enc(w *writer) {
	w.i32(int32(s.From))
	w.u64(s.ConfigSeq)
}

func decRapidSync(r *reader) *RapidSync {
	return &RapidSync{From: membership.NodeID(r.i32()), ConfigSeq: r.u64()}
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

func (p *RapidPropose) enc(w *writer) {
	w.i32(int32(p.From))
	w.u64(p.Token)
	w.u64(p.Seq)
	w.u32(uint32(len(p.Evict)))
	for _, m := range p.Evict {
		w.i32(int32(m))
	}
}

func decRapidPropose(r *reader) *RapidPropose {
	p := &RapidPropose{}
	p.From = membership.NodeID(r.i32())
	p.Token = r.u64()
	p.Seq = r.u64()
	n := r.sliceLen()
	if n > 0 {
		p.Evict = make([]membership.NodeID, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		p.Evict = append(p.Evict, membership.NodeID(r.i32()))
	}
	return p
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

func (v *RapidVote) enc(w *writer) {
	w.i32(int32(v.From))
	w.u64(v.Token)
	w.bool(v.OK)
	w.u32(uint32(len(v.Alive)))
	for _, m := range v.Alive {
		w.i32(int32(m))
	}
}

func decRapidVote(r *reader) *RapidVote {
	v := &RapidVote{}
	v.From = membership.NodeID(r.i32())
	v.Token = r.u64()
	v.OK = r.bool()
	n := r.sliceLen()
	if n > 0 {
		v.Alive = make([]membership.NodeID, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		v.Alive = append(v.Alive, membership.NodeID(r.i32()))
	}
	return v
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

func (h *Handoff) enc(w *writer) {
	w.i32(int32(h.From))
	w.u8(h.Level)
	w.u64(h.Seq)
	w.i32(int32(h.Successor))
}

func decHandoff(r *reader) *Handoff {
	return &Handoff{
		From:      membership.NodeID(r.i32()),
		Level:     r.u8(),
		Seq:       r.u64(),
		Successor: membership.NodeID(r.i32()),
	}
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

func (f *Reform) enc(w *writer) {
	w.i32(int32(f.From))
	w.u64(f.Epoch)
	w.u32(f.NewChannel)
	w.u32(uint32(len(f.Movers)))
	for _, m := range f.Movers {
		w.i32(int32(m))
	}
}

func decReform(r *reader) *Reform {
	f := &Reform{}
	f.From = membership.NodeID(r.i32())
	f.Epoch = r.u64()
	f.NewChannel = r.u32()
	n := r.sliceLen()
	if n > 0 {
		f.Movers = make([]membership.NodeID, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		f.Movers = append(f.Movers, membership.NodeID(r.i32()))
	}
	return f
}
