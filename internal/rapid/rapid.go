package rapid

import (
	"slices"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config is what differs between deployments of a rapid node; the protocol's
// tuning is the constant block below.
type Config struct {
	// HeartbeatPad is the uncarried tail each beat declares, to emulate
	// configured packet sizes (wire.RapidBeat.Pad).
	HeartbeatPad int
	// DCOf, when set, makes the monitoring overlay topology-aware: ring 0
	// stays a global permutation (the overlay remains one connected
	// expander, so a whole-DC outage is observed from outside), while rings
	// 1..K-1 cycle within each data center so K-1 of the K heartbeat edges
	// per member stay off the WAN. It must be a pure function — every node
	// evaluates it locally and all must agree on the edges. Nil keeps every
	// ring global (the original Rapid derivation).
	DCOf func(membership.NodeID) int
	// Seeds is the bootstrap configuration: every node must be constructed
	// with the same sorted seed list, which becomes configuration 1.
	Seeds []membership.NodeID
}

// DefaultConfig returns the zero configuration; the caller sets Seeds.
func DefaultConfig() Config { return Config{} }

// The tuning, fixed as Rapid ships one {K, H, L}: the full eviction pipeline
// (detect, arbitrate, batch, install) completes well inside the chaos
// harness's purge bound even when failures overlap, while the up-quiet veto
// keeps lossy-but-alive members out of every proposal.
const (
	// ringCount (K) is the number of monitoring rings: each member is
	// observed by up to K distinct peers (clamped to cluster size - 1).
	ringCount = 8
	// lowWatermark and highWatermark (L, H) are the cut detector's stable
	// watermarks; both are clamped to the effective ring count of the
	// installed configuration.
	lowWatermark, highWatermark = 2, 7
	// heartbeatInterval is the beat period on each monitoring edge; an
	// observer raises a DOWN alert after deadAfter of beat silence (five
	// consecutive losses).
	heartbeatInterval = time.Second
	deadAfter         = 5 * heartbeatInterval
	// reAlertInterval paces repeated DOWN alerts while a subject stays
	// silent, so lost alerts heal and report TTLs keep refreshing.
	reAlertInterval = 5 * time.Second
	// reportTTL expires unrefreshed accusations in the cut detector.
	reportTTL = 12 * time.Second
	// batchWindow is how long the resolved cut must hold steady before the
	// proposer installs it (Rapid's "wait for the unstable region to
	// drain", bounded).
	batchWindow = 2 * time.Second
	// arbitrateAfter is how old an unstable (below-H) accusation must be
	// before the proposer starts probing the subject; stable (>= H)
	// subjects are probed immediately.
	arbitrateAfter = 5 * time.Second
	// probeTimeout and probeRetries bound one arbitration round: a subject
	// that answers no probe in probeRetries+1 attempts is eviction-ready,
	// subject to the up-quiet veto.
	probeTimeout = time.Second
	probeRetries = 4
	// upQuietFor is the veto window: a probe-silent subject is only
	// confirmed dead if nobody anywhere reported hearing it for this long.
	// Keeps one-way-lossy paths from evicting healthy members.
	upQuietFor = 12 * time.Second
	// stagger spaces backup proposers: the member with rank r among
	// non-accused members waits r*stagger after the first accusation
	// before arbitrating, so one proposer acts at a time.
	stagger = 5 * time.Second
	// voteWindow is the minimum age of a ratification round before it may
	// commit, giving vetoes time to arrive; proposeRetry paces proposal
	// retransmissions while votes are outstanding.
	voteWindow   = time.Second
	proposeRetry = 2 * time.Second
	// joinRetry paces a non-member's admission requests (rotating through
	// the members it knows); joinBatchWindow lets the proposer batch
	// near-simultaneous joiners into one view change.
	joinRetry       = 2 * time.Second
	joinBatchWindow = time.Second
	// infoInterval paces each member's full-record broadcast; view changes
	// carry identity only, so records travel out of band and re-broadcast
	// to heal losses.
	infoInterval = 10 * time.Second
	// syncMinGap rate-limits per-target configuration (re)transmissions.
	syncMinGap = time.Second

	// pipeline is the worst-case single-cut eviction latency: beat silence,
	// the unstable-region wait, a full probe cycle, the steady batch window,
	// and the ratification round.
	pipeline = deadAfter + arbitrateAfter + (probeRetries+2)*probeTimeout +
		batchWindow + voteWindow + proposeRetry
)

// EvictionBound is how long a dead member may linger in any view. A view
// change waits for the WHOLE cut to resolve: overlapping faults (a cascade
// that kills on a deadAfter-scale cadence) extend an early victim's linger by
// the later victims' detection lag, so the bound buys the pipeline plus two
// extra detections.
func EvictionBound() time.Duration { return pipeline + 2*deadAfter }

// RejoinBound is how long after the last heal views may stay incomplete: a
// stale or evicted node must re-adopt the current configuration and re-admit
// itself (one full pipeline in the worst case), then records re-propagate on
// the info cadence.
func RejoinBound() time.Duration {
	return pipeline + joinRetry + joinBatchWindow + infoInterval
}

// infoMark is the high-water mark of one member's accepted records; seen is
// false until the first arrives.
type infoMark struct {
	ver  uint64
	beat uint64
	inc  uint32
	seen bool
}

// edgeKey identifies one monitoring edge for alert freshness.
type edgeKey struct {
	obs, subj membership.NodeID
}

// probeState is one in-flight arbitration of a cut subject; tokens start at
// 1, so the zero value is "no probe in flight".
type probeState struct {
	token    uint64
	tries    int
	deadline time.Duration
}

// pendingJoin is a sponsored admission request awaiting the next proposal.
type pendingJoin struct {
	info membership.MemberInfo
	at   time.Duration
}

// proposal is one open ratification round: the eviction set broadcast to the
// old configuration and the timestamps gating commit and retransmission. The
// votes collected so far are on the voters' peer records, under the token.
type proposal struct {
	token    uint64
	evict    []membership.NodeID // sorted
	openedAt time.Duration
	sentAt   time.Duration
}

// peer is what this node keeps about one node, itself included. Nothing
// clears the guards — not a view change, the peer's eviction or our restart
// — so replayed rounds stay dead; the session is the peer's place in the
// installed configuration, zeroed for every peer at once by installMembers
// (DESIGN.md, "Per-peer state").
type peer struct {
	peerGuards
	peerSession
}

type peerGuards struct {
	beat membership.Mark // replay guard over the peer's monitoring beats
	info infoMark        // replay guard over its records (admitInfo)
	// propToken is the highest proposal token seen from the peer (voter
	// side; tokens from one proposer are monotone).
	propToken uint64
	// Nothing goes to the peer before viewDue (views) and syncDue (syncs).
	viewDue, syncDue time.Duration
	// join is the peer's sponsored admission request, if any. Not a guard,
	// but with the guards' lifetime: only admission ends it.
	join *pendingJoin
}

type peerSession struct {
	member  bool // in the installed configuration
	subject bool // on one of my monitoring edges: I observe it
	// Edge state of a subject.
	down      bool // I have an unretracted DOWN alert out
	lastHeard time.Duration
	lastAlert time.Duration
	// Arbitration state of a cut subject (proposer side).
	confirmed bool // probe-silent and up-quiet: eviction-ready
	probe     probeState
	// vote is the token of the ratification round the peer OK'd.
	vote uint64
}

// Node is one cluster node running the rapid stable-membership scheme. It
// satisfies the harness Instance and service.Member seams, so the chaos,
// traffic, and service layers run over it unchanged.
type Node struct {
	cfg Config
	eng *sim.Engine
	ep  netsim.Transport
	// Self is the node's identity, directory, own record and lifecycle,
	// with the publishing API over that record; a published change is
	// broadcast to the configuration at once.
	membership.Self

	// Installed configuration.
	configSeq uint64
	proposer  membership.NodeID
	members   []membership.NodeID

	// Monitoring overlay of the installed configuration.
	observers []membership.NodeID // monitor me: my beat targets
	subjects  []membership.NodeID // I monitor them

	// The hosts a fan-out goes to, derived with the configuration: the
	// other members (broadcast) and the observers (beats); to is the
	// scratch list of a view change's targets.
	others, beatTo, to []topology.HostID

	peers membership.Table[peer]

	// Per-edge alert freshness (survives view changes and member expiry).
	alertSeen map[edgeKey]uint32
	alertSeq  uint32

	// Cut detection and arbitration.
	cut        *CutDetector
	readySince time.Duration
	tokens     uint64

	// Open ratification round (proposer side).
	prop *proposal

	// Admission.
	joinTarget int
	joinSentAt time.Duration

	hb       *sim.Ticker
	scan     *sim.Ticker
	infoTick *sim.Ticker

	// enc frames every packet into buf (frame). beat, infoMsg and view are
	// the outgoing beat, record and configuration, overwritten per send: a
	// fresh one would escape through wire.Message and cost a heap object per
	// send.
	enc     wire.Encoder
	buf     []byte
	beat    wire.RapidBeat
	infoMsg wire.RapidInfo
	view    wire.RapidView
}

// NewNode creates a node bound to an endpoint. cfg.Seeds is the bootstrap
// configuration and must be identical on every node.
func NewNode(cfg Config, ep netsim.Transport) *Node {
	n := &Node{
		cfg:        cfg,
		ep:         ep,
		alertSeen:  make(map[edgeKey]uint32),
		cut:        NewCutDetector(1, 1, reportTTL),
		readySince: -1,
	}
	n.Self = membership.NewSelf(membership.NodeID(ep.ID()), n.broadcastInfo)
	seeds := append([]membership.NodeID(nil), cfg.Seeds...)
	slices.Sort(seeds)
	n.configSeq, n.proposer = 1, membership.NoNode
	n.installMembers(seeds, 0)
	ep.SetHandler(n.Receive)
	return n
}

// ConfigSeq returns the installed configuration's sequence number.
func (n *Node) ConfigSeq() uint64 { return n.configSeq }

// isMember reports whether id is in the installed configuration.
func (n *Node) isMember(id membership.NodeID) bool {
	p := n.peers.Get(id)
	return p != nil && p.member
}

// Start joins the installed configuration and begins beating. A restarted
// node resumes from its (possibly stale) last configuration; the sync
// exchange converges it onto the cluster's current one within a beat or
// two, after which it re-admits itself if it was evicted meanwhile.
func (n *Node) Start(eng *sim.Engine) {
	if !n.Begin(eng) {
		return
	}
	n.eng = eng
	now := eng.Now()
	n.ep.SetUp(true)
	// Re-arm the installed configuration's edge state with a fresh grace
	// period (a restart must not act on pre-crash silence).
	n.installMembers(n.members, now)
	jitter := time.Duration(eng.Rand().Int63n(int64(heartbeatInterval)))
	n.hb = sim.NewTicker(eng, jitter, heartbeatInterval, n.sendBeats)
	n.scan = sim.NewTicker(eng, heartbeatInterval/2, heartbeatInterval/2, n.scanTick)
	n.infoTick = sim.NewTicker(eng, infoInterval+jitter, infoInterval, n.broadcastInfo)
	n.broadcastInfo()
	// Ask the cluster whether our configuration is behind: anyone on a
	// newer one replies with it.
	n.ep.UnicastAll(n.others, n.frame(&wire.RapidSync{From: n.ID(), ConfigSeq: n.configSeq}))
}

// Stop kills the daemon.
func (n *Node) Stop() {
	if !n.End() {
		return
	}
	n.hb.Stop()
	n.scan.Stop()
	n.infoTick.Stop()
	n.ep.SetUp(false)
}

// installMembers installs a member list as the current configuration's
// body: ends every peer's session, derives the monitoring rings, re-arms the
// edge and arbitration state, and drops pending joiners that made it in. It
// does NOT touch configSeq/proposer (the caller sets those), the directory,
// or any guard.
func (n *Node) installMembers(members []membership.NodeID, now time.Duration) {
	n.members = append([]membership.NodeID(nil), members...)
	n.peers.Each(func(_ membership.NodeID, p *peer) { p.peerSession = peerSession{} })
	for _, m := range n.members {
		p := n.peers.Ensure(m)
		p.member, p.join = true, nil
	}
	n.observers, n.subjects = deriveRingsDC(n.configSeq, ringCount, n.members, n.ID(), n.cfg.DCOf)
	n.others = appendHosts(n.others[:0], n.members, n.ID())
	n.beatTo = appendHosts(n.beatTo[:0], n.observers, membership.NoNode)
	for _, s := range n.subjects {
		p := n.peers.Ensure(s)
		p.subject, p.lastHeard = true, now
	}
	// Both watermarks are clamped to the configuration's ring count.
	hEff := max(1, min(highWatermark, ringCount, len(n.members)-1))
	n.cut.Reset(min(lowWatermark, hEff), hEff)
	n.readySince = -1
	n.prop = nil
	n.joinTarget = 0
	n.joinSentAt = -1
}

// ---- sending ----

// frame encodes m into the node's send buffer, good until the next frame.
func (n *Node) frame(m wire.Message) []byte {
	n.buf = n.enc.AppendEncode(n.buf[:0], m)
	return n.buf
}

// broadcast sends buf to every other member of the installed configuration.
func (n *Node) broadcast(buf []byte) { n.ep.UnicastAll(n.others, buf) }

// appendHosts appends the hosts of ids, all but skip, to dst.
func appendHosts(dst []topology.HostID, ids []membership.NodeID, skip membership.NodeID) []topology.HostID {
	for _, id := range ids {
		if id != skip {
			dst = append(dst, topology.HostID(id))
		}
	}
	return dst
}

func (n *Node) sendBeats() {
	if !n.Running() || len(n.observers) == 0 {
		return
	}
	info := n.Record()
	info.Beat++
	n.beat = wire.RapidBeat{
		From:      info.Node,
		ConfigSeq: n.configSeq,
		Inc:       info.Incarnation,
		Beat:      info.Beat,
		Pad:       uint16(n.cfg.HeartbeatPad),
	}
	n.ep.UnicastAll(n.beatTo, n.frame(&n.beat))
}

func (n *Node) broadcastInfo() {
	if !n.Running() || !n.isMember(n.ID()) || len(n.members) < 2 {
		return
	}
	info := n.Record()
	info.Beat++
	n.infoMsg = wire.RapidInfo{ConfigSeq: n.configSeq, Info: *info}
	n.broadcast(n.frame(&n.infoMsg))
}

func (n *Node) sendAlert(subject membership.NodeID, down bool) {
	now := n.eng.Now()
	n.alertSeq++
	a := &wire.RapidAlert{
		Observer:  n.ID(),
		Subject:   subject,
		ConfigSeq: n.configSeq,
		Seq:       n.alertSeq,
		Down:      down,
	}
	n.broadcast(n.frame(a))
	if down {
		n.cut.Down(subject, n.ID(), now)
		n.peers.Ensure(subject).lastAlert = now
	} else {
		n.cut.Up(subject, n.ID(), now)
	}
}

// sendViewTo retransmits the installed configuration to one peer,
// rate-limited per target, carrying every member record this node holds so
// the receiver's directory heals in one shot. The view is the node's own,
// its records re-encoded into the list's buffer.
func (n *Node) sendViewTo(target membership.NodeID, now time.Duration) {
	if target == n.ID() || target < 0 {
		return
	}
	p := n.peers.Ensure(target)
	if now < p.viewDue {
		return
	}
	p.viewDue = now + syncMinGap
	v := &n.view
	v.Seq, v.Proposer, v.Members = n.configSeq, n.proposer, n.members
	v.Infos.Reset()
	n.Directory().Range(func(id membership.NodeID, e *membership.Entry) {
		if n.isMember(id) {
			v.Infos.Append(n.Directory().Info(e))
		}
	})
	n.ep.Unicast(topology.HostID(target), n.frame(v))
}

// noteSeq reconciles configuration drift revealed by a peer's packet: a
// peer behind us gets our configuration, a peer ahead is asked for its
// configuration, and a same-sequence peer that is not in our configuration
// is on a rival view (split-brain heal) and gets ours — the lowest-proposer
// tiebreak on the receiving side converges both partitions.
func (n *Node) noteSeq(from membership.NodeID, seq uint64, now time.Duration) {
	if from < 0 || from == n.ID() {
		return
	}
	switch {
	case seq < n.configSeq:
		n.sendViewTo(from, now)
	case seq > n.configSeq:
		p := n.peers.Ensure(from)
		if now < p.syncDue {
			return
		}
		p.syncDue = now + syncMinGap
		buf := n.frame(&wire.RapidSync{From: n.ID(), ConfigSeq: n.configSeq})
		n.ep.Unicast(topology.HostID(from), buf)
	default:
		if !n.isMember(from) {
			n.sendViewTo(from, now)
		}
	}
}

// ---- receiving ----

// Receive handles one delivered packet. NewNode installs it as the endpoint
// handler; a layer that shares the endpoint (a service runtime) installs its
// mux in its place and delegates membership packets here.
func (n *Node) Receive(pkt netsim.Packet) {
	if !n.Running() {
		return
	}
	msg, err := pkt.Decode()
	if err != nil {
		n.ep.NoteReject()
		return
	}
	now := n.eng.Now()
	switch m := msg.(type) {
	case *wire.RapidBeat:
		n.onBeat(m, now)
	case *wire.RapidInfo:
		n.onInfo(m, now)
	case *wire.RapidAlert:
		n.onAlert(m, now)
	case *wire.RapidJoin:
		n.onJoin(m, now)
	case *wire.RapidView:
		n.adopt(m, now)
	case *wire.RapidProbe:
		n.onProbe(m)
	case *wire.RapidProbeAck:
		n.onProbeAck(m, now)
	case *wire.RapidSync:
		if m.From >= 0 && m.From != n.ID() && m.ConfigSeq < n.configSeq {
			n.sendViewTo(m.From, now)
		}
	case *wire.RapidPropose:
		n.onPropose(m, now)
	case *wire.RapidVote:
		n.onVote(m, now)
	}
}

func (n *Node) onBeat(b *wire.RapidBeat, now time.Duration) {
	if b.From < 0 || b.From == n.ID() {
		n.ep.NoteReject()
		return
	}
	p := n.peers.Ensure(b.From)
	if !p.beat.Advance(b.Inc, b.Beat) {
		n.ep.NoteReject()
		return
	}
	n.noteSeq(b.From, b.ConfigSeq, now)
	if b.ConfigSeq != n.configSeq || !p.subject {
		return
	}
	p.lastHeard = now
	if p.down {
		p.down = false
		n.sendAlert(b.From, false)
	}
}

func (n *Node) onInfo(m *wire.RapidInfo, now time.Duration) {
	id := m.Info.Node
	if id < 0 || id == n.ID() {
		n.ep.NoteReject()
		return
	}
	n.noteSeq(id, m.ConfigSeq, now)
	if !n.isMember(id) {
		return
	}
	if !n.admitInfo(m.Info.Prefix()) {
		n.ep.NoteReject()
		return
	}
	n.Directory().Upsert(m.Info, membership.OriginDirect, 0, membership.NoNode, now)
}

// admitInfo is the per-node freshness high-water mark in front of the
// directory: only a record strictly advancing (incarnation, version, beat) is
// admitted — and the mark moved up to it — so replayed or view-carried stale
// records can never regress any observer's view of a subject. The decision
// needs the record's prefix only; the caller upserts what is admitted.
func (n *Node) admitInfo(p membership.InfoPrefix) bool {
	mark := &n.peers.Ensure(p.Node).info
	if mark.seen && p.Incarnation <= mark.inc &&
		(p.Incarnation < mark.inc || p.Version < mark.ver ||
			(p.Version == mark.ver && p.Beat <= mark.beat)) {
		return false
	}
	*mark = infoMark{inc: p.Incarnation, ver: p.Version, beat: p.Beat, seen: true}
	return true
}

func (n *Node) onAlert(a *wire.RapidAlert, now time.Duration) {
	if a.Observer < 0 || a.Subject < 0 || a.Observer == a.Subject || a.Observer == n.ID() {
		n.ep.NoteReject()
		return
	}
	// Per-edge freshness: alerts carry the observer's monotone sequence,
	// so a replayed DOWN cannot overwrite a later UP.
	k := edgeKey{obs: a.Observer, subj: a.Subject}
	if prev, ok := n.alertSeen[k]; ok && a.Seq <= prev {
		n.ep.NoteReject()
		return
	}
	n.alertSeen[k] = a.Seq
	n.noteSeq(a.Observer, a.ConfigSeq, now)
	if a.ConfigSeq != n.configSeq || !n.isMember(a.Observer) || !n.isMember(a.Subject) || a.Subject == n.ID() {
		return
	}
	if a.Down {
		n.cut.Down(a.Subject, a.Observer, now)
	} else {
		n.cut.Up(a.Subject, a.Observer, now)
	}
}

func (n *Node) onJoin(j *wire.RapidJoin, now time.Duration) {
	if j.From < 0 || j.From == n.ID() || j.Info.Node != j.From {
		n.ep.NoteReject()
		return
	}
	from := n.peers.Ensure(j.From)
	if from.member {
		// Already in: the joiner is behind, send it the configuration.
		n.sendViewTo(j.From, now)
		return
	}
	if p := from.join; p != nil {
		if j.Info.Incarnation > p.info.Incarnation ||
			(j.Info.Incarnation == p.info.Incarnation && j.Info.Version > p.info.Version) {
			p.info = j.Info
		}
		return
	}
	from.join = &pendingJoin{info: j.Info, at: now}
}

func (n *Node) onProbe(p *wire.RapidProbe) {
	if p.From < 0 || p.From == n.ID() {
		n.ep.NoteReject()
		return
	}
	buf := n.frame(&wire.RapidProbeAck{From: n.ID(), Token: p.Token})
	n.ep.Unicast(topology.HostID(p.From), buf)
}

// onPropose is the voter side of the ratification round: veto any proposed
// evictee this node can personally contradict — itself, a monitored subject
// it is still hearing, or a member somebody reported alive within the quiet
// window. Everything else gets an OK; the proposer needs a majority of them.
func (n *Node) onPropose(p *wire.RapidPropose, now time.Duration) {
	if p.From < 0 || p.From == n.ID() || p.Seq == 0 {
		n.ep.NoteReject()
		return
	}
	// Proposal tokens from one proposer are monotone: a replayed round from
	// the past must not harvest fresh votes. Equal tokens are the live
	// round's retransmissions and must be re-answered.
	from := n.peers.Ensure(p.From)
	if p.Token < from.propToken {
		n.ep.NoteReject()
		return
	}
	from.propToken = p.Token
	if !from.member || p.Seq != n.configSeq+1 {
		n.noteSeq(p.From, p.Seq-1, now)
		return
	}
	var alive []membership.NodeID
	for _, s := range p.Evict {
		subj := n.peers.Get(s)
		switch {
		case s == n.ID():
			alive = append(alive, s)
		case subj != nil && subj.subject && now-subj.lastHeard <= deadAfter:
			alive = append(alive, s)
		default:
			if lu := n.cut.LastUp(s); lu >= 0 && now-lu < upQuietFor {
				alive = append(alive, s)
			}
		}
	}
	v := &wire.RapidVote{From: n.ID(), Token: p.Token, OK: len(alive) == 0, Alive: alive}
	n.ep.Unicast(topology.HostID(p.From), n.frame(v))
}

// onVote is the proposer side: a veto aborts the round on the spot (and the
// vetoed members leave the cut — somebody still hears them), an OK counts
// toward the majority the commit gate needs.
func (n *Node) onVote(v *wire.RapidVote, now time.Duration) {
	p := n.prop
	if p == nil || v.Token != p.token || v.From < 0 || v.From == n.ID() || !n.isMember(v.From) {
		n.ep.NoteReject()
		return
	}
	if !v.OK {
		for _, s := range v.Alive {
			if n.isMember(s) {
				n.vouch(s, now)
			}
		}
		n.prop = nil
		n.readySince = -1
		return
	}
	n.peers.Get(v.From).vote = p.token
}

// vouch takes a member proven alive out of the cut and drops its
// arbitration state.
func (n *Node) vouch(s membership.NodeID, now time.Duration) {
	n.cut.Vouch(s, now)
	p := n.peers.Ensure(s)
	p.confirmed, p.probe = false, probeState{}
}

func (n *Node) onProbeAck(a *wire.RapidProbeAck, now time.Duration) {
	p := n.peers.Get(a.From)
	if p == nil || p.probe.token == 0 || p.probe.token != a.Token {
		n.ep.NoteReject()
		return
	}
	n.vouch(a.From, now)
}

// adopt installs a received configuration if it wins against the current
// one: a higher sequence always wins; the same sequence wins on a lower
// proposer ID (rival proposals from a healed partition converge onto one).
func (n *Node) adopt(v *wire.RapidView, now time.Duration) {
	if v.Seq < n.configSeq ||
		(v.Seq == n.configSeq && (v.Proposer < 0 || n.proposer < 0 || v.Proposer >= n.proposer)) {
		n.ep.NoteReject()
		return
	}
	if len(v.Members) == 0 {
		n.ep.NoteReject()
		return
	}
	members := append([]membership.NodeID(nil), v.Members...)
	slices.Sort(members)
	for i, m := range members {
		if m < 0 || (i > 0 && members[i-1] == m) {
			n.ep.NoteReject()
			return
		}
	}
	wasMember := n.isMember(n.ID())
	n.configSeq, n.proposer = v.Seq, v.Proposer
	n.installMembers(members, now)
	// Directory diff: departed members leave atomically, carried records
	// for incoming members land behind the freshness guard.
	for _, id := range n.Directory().Nodes() {
		if id != n.ID() && !n.isMember(id) {
			n.Directory().Remove(id, now)
		}
	}
	for c := v.Infos.Cursor(); c.Next(); {
		p := c.Prefix()
		if p.Node >= 0 && p.Node != n.ID() && n.isMember(p.Node) && n.admitInfo(p) {
			n.Directory().Upsert(c.Info(), membership.OriginRelayed, 0, v.Proposer, now)
		}
	}
	if n.isMember(n.ID()) && !wasMember {
		// Newly admitted (or re-admitted after eviction): announce our
		// record so every member's directory gets the authoritative copy.
		n.broadcastInfo()
	}
}

// ---- periodic scan: detection, arbitration, proposal, admission ----

func (n *Node) scanTick() {
	if !n.Running() {
		return
	}
	now := n.eng.Now()
	n.detect(now)
	if !n.isMember(n.ID()) {
		n.joinLoop(now)
		return
	}
	n.arbitrate(now)
	n.pumpProposal(now)
}

// detect raises and refreshes DOWN alerts for silent subjects.
func (n *Node) detect(now time.Duration) {
	for _, s := range n.subjects {
		p := n.peers.Get(s)
		silent := now-p.lastHeard > deadAfter
		if !silent {
			continue
		}
		if !p.down {
			p.down = true
			n.sendAlert(s, true)
		} else if now-p.lastAlert >= reAlertInterval {
			n.sendAlert(s, true)
		}
	}
}

// joinLoop runs while this node is not in the installed configuration:
// rotate admission requests through the members we know, lowest (the
// likely proposer) first.
func (n *Node) joinLoop(now time.Duration) {
	if n.joinSentAt >= 0 && now-n.joinSentAt < joinRetry {
		return
	}
	if len(n.others) == 0 {
		return
	}
	t := n.others[n.joinTarget%len(n.others)]
	n.joinTarget++
	n.joinSentAt = now
	j := &wire.RapidJoin{From: n.ID(), ConfigSeq: n.configSeq, Info: n.Info()}
	n.ep.Unicast(t, n.frame(j))
}

// arbitrate is the proposer side of the pipeline: classify the cut, probe
// accused subjects, and install a view change once the whole cut is
// resolved and has held steady for the batch window.
func (n *Node) arbitrate(now time.Duration) {
	stable, unstable := n.cut.Classify(now)
	cutSet := stable
	if len(unstable) > 0 {
		cutSet = append(append([]membership.NodeID(nil), stable...), unstable...)
		slices.Sort(cutSet)
	}
	inCut := func(id membership.NodeID) bool { return contains(cutSet, id) }
	// Drop arbitration state for subjects that left the cut (vouched or
	// retracted); their stale verdicts must not leak into a proposal.
	n.peers.Each(func(id membership.NodeID, p *peer) {
		if !inCut(id) {
			p.confirmed, p.probe = false, probeState{}
		}
	})
	if len(cutSet) == 0 {
		n.readySince = -1
		if n.prop != nil && len(n.prop.evict) > 0 {
			// The cut drained (retractions or vouches) while a ratification
			// round was open: nobody should be evicted anymore.
			n.prop = nil
		}
		n.proposeJoins(now)
		return
	}
	if inCut(n.ID()) {
		// Accused ourselves: stay out of arbitration, answer probes, and
		// let the survivors decide.
		n.readySince = -1
		return
	}
	// Proposer staggering: rank r among non-accused members waits
	// r*stagger after the oldest accusation before acting.
	rank := 0
	for _, m := range n.members {
		if m == n.ID() {
			break
		}
		if !inCut(m) {
			rank++
		}
	}
	firstDown := time.Duration(-1)
	for _, s := range cutSet {
		if fd := n.cut.FirstDown(s); fd >= 0 && (firstDown < 0 || fd < firstDown) {
			firstDown = fd
		}
	}
	if firstDown < 0 || now-firstDown < time.Duration(rank)*stagger {
		n.readySince = -1
		return
	}
	for _, s := range cutSet {
		p := n.peers.Ensure(s)
		if p.confirmed {
			continue
		}
		if !contains(stable, s) && now-n.cut.FirstDown(s) < arbitrateAfter {
			continue
		}
		n.probe(s, p, now)
	}
	for _, s := range cutSet {
		if !n.peers.Get(s).confirmed {
			n.readySince = -1
			return
		}
	}
	if n.readySince < 0 {
		n.readySince = now
		return
	}
	if now-n.readySince < batchWindow {
		return
	}
	n.ensureProposal(cutSet, now)
}

// probe drives one subject's arbitration state machine: send (and resend)
// direct probes; after the retry budget, confirm the subject dead only if
// nobody anywhere heard it for upQuietFor — otherwise keep probing (a
// lossy-but-alive member keeps generating UP evidence and is never
// confirmed).
func (n *Node) probe(s membership.NodeID, p *peer, now time.Duration) {
	ps := &p.probe
	if ps.token == 0 {
		n.tokens++
		*ps = probeState{token: n.tokens, deadline: now + probeTimeout}
		n.sendProbe(s, ps.token)
		return
	}
	if now < ps.deadline {
		return
	}
	if ps.tries >= probeRetries {
		if lu := n.cut.LastUp(s); lu < 0 || now-lu >= upQuietFor {
			p.confirmed, p.probe = true, probeState{}
			return
		}
		ps.tries = 0 // veto active: keep cycling until the UP evidence dries up
	} else {
		ps.tries++
	}
	n.tokens++
	ps.token = n.tokens
	ps.deadline = now + probeTimeout
	n.sendProbe(s, ps.token)
}

func (n *Node) sendProbe(s membership.NodeID, token uint64) {
	buf := n.frame(&wire.RapidProbe{From: n.ID(), Token: token})
	n.ep.Unicast(topology.HostID(s), buf)
}

// proposeJoins opens a joins-only ratification round: strictly the lowest
// member's job, batched over joinBatchWindow.
func (n *Node) proposeJoins(now time.Duration) {
	if len(n.members) == 0 || n.members[0] != n.ID() {
		return
	}
	oldest := time.Duration(-1)
	n.peers.Each(func(_ membership.NodeID, p *peer) {
		if p.join != nil && (oldest < 0 || p.join.at < oldest) {
			oldest = p.join.at
		}
	})
	if oldest < 0 || now-oldest < joinBatchWindow {
		return
	}
	n.ensureProposal(nil, now)
}

// ensureProposal keeps exactly one ratification round open for the desired
// eviction set: a matching round keeps collecting votes (pumpProposal
// retransmits and commits it), a different one is replaced under a fresh
// token so stragglers' votes for the old set cannot ratify the new one.
func (n *Node) ensureProposal(evict []membership.NodeID, now time.Duration) {
	if n.prop != nil && slices.Equal(n.prop.evict, evict) {
		return
	}
	n.tokens++
	n.prop = &proposal{
		token:    n.tokens,
		evict:    append([]membership.NodeID(nil), evict...),
		openedAt: now,
		sentAt:   now,
	}
	n.peers.Get(n.ID()).vote = n.tokens
	n.broadcastProposal()
}

func (n *Node) broadcastProposal() {
	p := &wire.RapidPropose{
		From:  n.ID(),
		Token: n.prop.token,
		Seq:   n.configSeq + 1,
		Evict: n.prop.evict,
	}
	n.broadcast(n.frame(p))
}

// pumpProposal retransmits the open round for lost votes and commits it once
// it is old enough for vetoes to have had their chance AND a majority of the
// old configuration (counting ourselves) ratified it. The majority gate is
// the split-brain barrier: a partition minority can never install anything,
// so it stays behind and re-adopts the majority's chain at heal.
func (n *Node) pumpProposal(now time.Duration) {
	p := n.prop
	if p == nil {
		return
	}
	if now-p.sentAt >= proposeRetry {
		p.sentAt = now
		n.broadcastProposal()
	}
	if now-p.openedAt < voteWindow {
		return
	}
	acks := 0
	for _, m := range n.members {
		if n.peers.Get(m).vote == p.token {
			acks++
		}
	}
	if acks >= len(n.members)/2+1 {
		n.commit(p.evict, now)
	}
}

// commit builds and installs configuration configSeq+1: current members
// minus the ratified cut, plus every pending joiner. The view broadcasts to
// the union of old and new members, then installs locally through the same
// adopt path everyone else runs.
func (n *Node) commit(evict []membership.NodeID, now time.Duration) {
	evicted := func(id membership.NodeID) bool { return contains(evict, id) }
	next := make([]membership.NodeID, 0, len(n.members))
	for _, m := range n.members {
		if !evicted(m) {
			next = append(next, m)
		}
	}
	// Deliver to everyone affected: survivors, joiners, and the evicted (so
	// a mistakenly evicted live node learns immediately and rejoins).
	targets := append([]membership.NodeID(nil), n.members...)
	var joinInfos []membership.MemberInfo
	n.peers.Each(func(id membership.NodeID, p *peer) {
		if p.join != nil && !evicted(id) && !p.member {
			next = append(next, id)
			targets = append(targets, id)
			joinInfos = append(joinInfos, p.join.info)
		}
	})
	slices.Sort(next)
	slices.Sort(targets)
	if len(next) == 0 {
		return
	}
	v := &wire.RapidView{Seq: n.configSeq + 1, Proposer: n.ID(), Members: next}
	n.Directory().Range(func(id membership.NodeID, e *membership.Entry) {
		if !evicted(id) && n.isMember(id) {
			v.Infos.Append(n.Directory().Info(e))
		}
	})
	for _, info := range joinInfos {
		v.Infos.Append(info)
	}
	n.to = appendHosts(n.to[:0], targets, n.ID())
	n.ep.UnicastAll(n.to, n.frame(v))
	n.adopt(v, now)
}
