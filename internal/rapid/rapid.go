package rapid

import (
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config parametrizes a rapid node. The defaults are tuned so the full
// eviction pipeline (detect, arbitrate, batch, install) completes well
// inside the chaos harness's purge bound even when failures overlap, while
// the up-quiet veto keeps lossy-but-alive members out of every proposal.
type Config struct {
	// K is the number of monitoring rings: each member is observed by up
	// to K distinct peers (clamped to cluster size - 1).
	K int
	// HeartbeatInterval is the beat period on each monitoring edge.
	HeartbeatInterval time.Duration
	// MaxLoss is the consecutive beat losses tolerated before an observer
	// raises a DOWN alert (DeadAfter = MaxLoss * HeartbeatInterval).
	MaxLoss int
	// L and H are the cut detector's stable watermarks; both are clamped
	// to the effective ring count of the installed configuration.
	L, H int
	// ReAlertInterval paces repeated DOWN alerts while a subject stays
	// silent, so lost alerts heal and report TTLs keep refreshing.
	ReAlertInterval time.Duration
	// ReportTTL expires unrefreshed accusations in the cut detector.
	ReportTTL time.Duration
	// BatchWindow is how long the resolved cut must hold steady before the
	// proposer installs it (Rapid's "wait for the unstable region to
	// drain", bounded).
	BatchWindow time.Duration
	// ArbitrateAfter is how old an unstable (below-H) accusation must be
	// before the proposer starts probing the subject; stable (>= H)
	// subjects are probed immediately.
	ArbitrateAfter time.Duration
	// ProbeTimeout and ProbeRetries bound one arbitration round: a subject
	// that answers no probe in ProbeRetries+1 attempts is eviction-ready,
	// subject to the up-quiet veto.
	ProbeTimeout time.Duration
	ProbeRetries int
	// UpQuietFor is the veto window: a probe-silent subject is only
	// confirmed dead if nobody anywhere reported hearing it for this long.
	// Keeps one-way-lossy paths from evicting healthy members.
	UpQuietFor time.Duration
	// Stagger spaces backup proposers: the member with rank r among
	// non-accused members waits r*Stagger after the first accusation
	// before arbitrating, so one proposer acts at a time.
	Stagger time.Duration
	// VoteWindow is the minimum age of a ratification round before it may
	// commit, giving vetoes time to arrive; ProposeRetry paces proposal
	// retransmissions while votes are outstanding.
	VoteWindow   time.Duration
	ProposeRetry time.Duration
	// JoinRetry paces a non-member's admission requests (rotating through
	// the members it knows); JoinBatchWindow lets the proposer batch
	// near-simultaneous joiners into one view change.
	JoinRetry       time.Duration
	JoinBatchWindow time.Duration
	// InfoInterval paces each member's full-record broadcast; view changes
	// carry identity only, so records travel out of band and re-broadcast
	// to heal losses.
	InfoInterval time.Duration
	// SyncMinGap rate-limits per-target configuration (re)transmissions.
	SyncMinGap time.Duration
	// HeartbeatPad inflates beats to emulate configured packet sizes.
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

// DefaultConfig returns the tuning used by the chaos and traffic matrices.
func DefaultConfig() Config {
	return Config{
		K:                 8,
		HeartbeatInterval: time.Second,
		MaxLoss:           5,
		L:                 2,
		H:                 7,
		ReAlertInterval:   5 * time.Second,
		ReportTTL:         12 * time.Second,
		BatchWindow:       2 * time.Second,
		ArbitrateAfter:    5 * time.Second,
		ProbeTimeout:      time.Second,
		ProbeRetries:      4,
		UpQuietFor:        12 * time.Second,
		Stagger:           5 * time.Second,
		VoteWindow:        time.Second,
		ProposeRetry:      2 * time.Second,
		JoinRetry:         2 * time.Second,
		JoinBatchWindow:   time.Second,
		InfoInterval:      10 * time.Second,
		SyncMinGap:        time.Second,
	}
}

// DeadAfter is the beat silence after which an observer raises an alert.
func (c Config) DeadAfter() time.Duration {
	return time.Duration(c.MaxLoss) * c.HeartbeatInterval
}

// infoMark is the high-water mark of one member's accepted records.
type infoMark struct {
	inc  uint32
	ver  uint64
	beat uint64
}

// edgeKey identifies one monitoring edge for alert freshness.
type edgeKey struct {
	obs, subj membership.NodeID
}

// probeState is one in-flight arbitration of a cut subject.
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
// old configuration, the votes collected so far, and the timestamps gating
// commit and retransmission.
type proposal struct {
	token    uint64
	evict    []membership.NodeID // sorted
	votes    map[membership.NodeID]bool
	openedAt time.Duration
	sentAt   time.Duration
}

// Node is one cluster node running the rapid stable-membership scheme. It
// satisfies the harness Instance and service.Member seams, so the chaos,
// traffic, and service layers run over it unchanged.
type Node struct {
	cfg     Config
	eng     *sim.Engine
	ep      netsim.Transport
	id      membership.NodeID
	dir     *membership.Directory
	info    membership.MemberInfo
	running bool

	// Installed configuration.
	configSeq uint64
	proposer  membership.NodeID
	members   []membership.NodeID
	memberSet map[membership.NodeID]bool

	// Monitoring overlay of the installed configuration.
	observers []membership.NodeID // monitor me: my beat targets
	subjects  []membership.NodeID // I monitor them
	subjSet   map[membership.NodeID]bool

	// Per-subject edge state.
	lastHeard map[membership.NodeID]time.Duration
	downMark  map[membership.NodeID]bool
	lastAlert map[membership.NodeID]time.Duration

	// Freshness guards (survive view changes and member expiry).
	beatFresh membership.Freshness
	infoSeen  map[membership.NodeID]infoMark
	alertSeen map[edgeKey]uint32
	alertSeq  uint32

	// Cut detection and arbitration.
	cut        *CutDetector
	probes     map[membership.NodeID]*probeState
	confirmed  map[membership.NodeID]bool
	readySince time.Duration
	tokens     uint64

	// Open ratification round (proposer side) and proposal-token high-water
	// marks (voter side; survive view changes so replayed rounds stay dead).
	prop     *proposal
	propSeen map[membership.NodeID]uint64

	// Admission.
	joinPend   map[membership.NodeID]*pendingJoin
	joinTarget int
	joinSentAt time.Duration

	// Per-target pacing of view/sync retransmissions.
	viewSentAt map[membership.NodeID]time.Duration
	syncSentAt map[membership.NodeID]time.Duration

	viewsInstalled uint64

	hb       *sim.Ticker
	scan     *sim.Ticker
	infoTick *sim.Ticker

	enc      wire.Encoder
	beatHint int
}

// NewNode creates a node bound to an endpoint. cfg.Seeds is the bootstrap
// configuration and must be identical on every node.
func NewNode(cfg Config, ep netsim.Transport) *Node {
	id := membership.NodeID(ep.ID())
	n := &Node{
		cfg:        cfg,
		ep:         ep,
		id:         id,
		dir:        membership.NewDirectory(id),
		info:       membership.MemberInfo{Node: id},
		infoSeen:   make(map[membership.NodeID]infoMark),
		alertSeen:  make(map[edgeKey]uint32),
		joinPend:   make(map[membership.NodeID]*pendingJoin),
		propSeen:   make(map[membership.NodeID]uint64),
		viewSentAt: make(map[membership.NodeID]time.Duration),
		syncSentAt: make(map[membership.NodeID]time.Duration),
		readySince: -1,
	}
	seeds := append([]membership.NodeID(nil), cfg.Seeds...)
	sortIDs(seeds)
	n.configSeq, n.proposer = 1, membership.NoNode
	n.installMembers(seeds, 0)
	n.beatHint = wire.HeaderLen + 32 + cfg.HeartbeatPad
	return n
}

// ID returns the node identity.
func (n *Node) ID() membership.NodeID { return n.id }

// Directory returns the node's yellow-page directory.
func (n *Node) Directory() *membership.Directory { return n.dir }

// Running reports whether the node is started.
func (n *Node) Running() bool { return n.running }

// ConfigSeq returns the installed configuration's sequence number.
func (n *Node) ConfigSeq() uint64 { return n.configSeq }

// Members returns the installed configuration's member list (shared slice;
// callers must not mutate).
func (n *Node) Members() []membership.NodeID { return n.members }

// ViewsInstalled counts configurations this node has adopted since boot.
func (n *Node) ViewsInstalled() uint64 { return n.viewsInstalled }

// SetInfo replaces the published services/attributes.
func (n *Node) SetInfo(info membership.MemberInfo) {
	info.Node = n.id
	inc, beat := n.info.Incarnation, n.info.Beat
	n.info = info.Clone()
	n.info.Incarnation, n.info.Beat = inc, beat
}

// UpdateValue publishes a key/value pair.
func (n *Node) UpdateValue(key, value string) {
	n.info.SetAttr(key, value)
	n.info.Version++
	n.publishSelf()
}

// RegisterService publishes a service hosted by this node.
func (n *Node) RegisterService(name, partitions string, params ...membership.KV) error {
	parts, err := membership.ParsePartitions(partitions)
	if err != nil {
		return err
	}
	n.info.Services = append(n.info.Services, membership.ServiceDecl{
		Name: name, Partitions: parts, Params: append([]membership.KV(nil), params...),
	})
	n.info.Version++
	n.publishSelf()
	return nil
}

func (n *Node) publishSelf() {
	if !n.running {
		return
	}
	n.dir.Upsert(n.info.Clone(), membership.OriginSelf, 0, membership.NoNode, n.eng.Now())
	n.broadcastInfo()
}

// Receive handles a membership packet delivered by an outer endpoint mux
// (e.g. a service runtime that claimed the endpoint before Start).
func (n *Node) Receive(pkt netsim.Packet) { n.receive(pkt) }

// Start joins the installed configuration and begins beating. A restarted
// node resumes from its (possibly stale) last configuration; the sync
// exchange converges it onto the cluster's current one within a beat or
// two, after which it re-admits itself if it was evicted meanwhile.
func (n *Node) Start(eng *sim.Engine) {
	if n.running {
		return
	}
	n.eng = eng
	n.running = true
	n.info.Incarnation++
	now := eng.Now()
	n.dir.Upsert(n.info.Clone(), membership.OriginSelf, 0, membership.NoNode, now)
	if !n.ep.HasHandler() {
		n.ep.SetHandler(n.receive)
	}
	n.ep.SetUp(true)
	// Re-arm the installed configuration's edge state with a fresh grace
	// period (a restart must not act on pre-crash silence).
	n.installMembers(n.members, now)
	jitter := time.Duration(eng.Rand().Int63n(int64(n.cfg.HeartbeatInterval)))
	n.hb = sim.NewTicker(eng, jitter, n.cfg.HeartbeatInterval, n.sendBeats)
	n.scan = sim.NewTicker(eng, n.cfg.HeartbeatInterval/2, n.cfg.HeartbeatInterval/2, n.scanTick)
	n.infoTick = sim.NewTicker(eng, n.cfg.InfoInterval+jitter, n.cfg.InfoInterval, n.broadcastInfo)
	n.broadcastInfo()
	// Ask the cluster whether our configuration is behind: anyone on a
	// newer one replies with it.
	sync := n.enc.AppendEncode(make([]byte, 0, 64), &wire.RapidSync{From: n.id, ConfigSeq: n.configSeq})
	for _, m := range n.members {
		if m != n.id {
			n.ep.Unicast(topology.HostID(m), sync)
		}
	}
}

// Stop kills the daemon.
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	n.hb.Stop()
	n.scan.Stop()
	n.infoTick.Stop()
	n.ep.SetUp(false)
}

// installMembers installs a member list as the current configuration's
// body: derives the monitoring rings, resets all per-configuration edge and
// arbitration state, and drops pending joiners that made it in. It does NOT
// touch configSeq/proposer (the caller sets those) or the directory.
func (n *Node) installMembers(members []membership.NodeID, now time.Duration) {
	fresh := append([]membership.NodeID(nil), members...)
	n.members = fresh
	n.memberSet = make(map[membership.NodeID]bool, len(n.members))
	for _, m := range n.members {
		n.memberSet[m] = true
	}
	kEff := n.cfg.K
	if kEff > len(n.members)-1 {
		kEff = len(n.members) - 1
	}
	hEff := n.cfg.H
	if hEff > kEff {
		hEff = kEff
	}
	if hEff < 1 {
		hEff = 1
	}
	lEff := n.cfg.L
	if lEff > hEff {
		lEff = hEff
	}
	n.observers, n.subjects = deriveRingsDC(n.configSeq, n.cfg.K, n.members, n.id, n.cfg.DCOf)
	n.subjSet = make(map[membership.NodeID]bool, len(n.subjects))
	n.lastHeard = make(map[membership.NodeID]time.Duration, len(n.subjects))
	for _, s := range n.subjects {
		n.subjSet[s] = true
		n.lastHeard[s] = now
	}
	n.downMark = make(map[membership.NodeID]bool)
	n.lastAlert = make(map[membership.NodeID]time.Duration)
	n.cut = NewCutDetector(lEff, hEff, n.cfg.ReportTTL)
	n.probes = make(map[membership.NodeID]*probeState)
	n.confirmed = make(map[membership.NodeID]bool)
	n.readySince = -1
	n.prop = nil
	for id := range n.joinPend {
		if n.memberSet[id] {
			delete(n.joinPend, id)
		}
	}
	n.joinTarget = 0
	n.joinSentAt = -1
}

// ---- sending ----

func (n *Node) broadcast(buf []byte) {
	for _, m := range n.members {
		if m != n.id {
			n.ep.Unicast(topology.HostID(m), buf)
		}
	}
}

func (n *Node) sendBeats() {
	if !n.running || len(n.observers) == 0 {
		return
	}
	n.info.Beat++
	beat := &wire.RapidBeat{
		From:      n.id,
		ConfigSeq: n.configSeq,
		Inc:       n.info.Incarnation,
		Beat:      n.info.Beat,
		Pad:       uint16(n.cfg.HeartbeatPad),
	}
	buf := n.enc.AppendEncode(make([]byte, 0, n.beatHint), beat)
	for _, o := range n.observers {
		n.ep.Unicast(topology.HostID(o), buf)
	}
}

func (n *Node) broadcastInfo() {
	if !n.running || !n.memberSet[n.id] || len(n.members) < 2 {
		return
	}
	n.info.Beat++
	msg := &wire.RapidInfo{ConfigSeq: n.configSeq, Info: n.info.Clone()}
	n.broadcast(n.enc.AppendEncode(nil, msg))
}

func (n *Node) sendAlert(subject membership.NodeID, down bool) {
	now := n.eng.Now()
	n.alertSeq++
	a := &wire.RapidAlert{
		Observer:  n.id,
		Subject:   subject,
		ConfigSeq: n.configSeq,
		Seq:       n.alertSeq,
		Down:      down,
	}
	n.broadcast(n.enc.AppendEncode(make([]byte, 0, 64), a))
	if down {
		n.cut.Down(subject, n.id, now)
		n.lastAlert[subject] = now
	} else {
		n.cut.Up(subject, n.id, now)
	}
}

// currentView materializes the installed configuration as a wire message,
// carrying every member record this node holds so the receiver's directory
// heals in one shot.
func (n *Node) currentView() *wire.RapidView {
	v := &wire.RapidView{
		Seq:      n.configSeq,
		Proposer: n.proposer,
		Members:  append([]membership.NodeID(nil), n.members...),
	}
	for _, info := range n.dir.Snapshot() {
		if n.memberSet[info.Node] {
			v.Infos = append(v.Infos, info)
		}
	}
	return v
}

// sendViewTo retransmits the installed configuration to one peer,
// rate-limited per target.
func (n *Node) sendViewTo(target membership.NodeID, now time.Duration) {
	if target == n.id || target < 0 {
		return
	}
	if last, ok := n.viewSentAt[target]; ok && now-last < n.cfg.SyncMinGap {
		return
	}
	n.viewSentAt[target] = now
	n.ep.Unicast(topology.HostID(target), n.enc.AppendEncode(nil, n.currentView()))
}

// noteSeq reconciles configuration drift revealed by a peer's packet: a
// peer behind us gets our configuration, a peer ahead is asked for its
// configuration, and a same-sequence peer that is not in our configuration
// is on a rival view (split-brain heal) and gets ours — the lowest-proposer
// tiebreak on the receiving side converges both partitions.
func (n *Node) noteSeq(from membership.NodeID, seq uint64, now time.Duration) {
	if from < 0 || from == n.id {
		return
	}
	switch {
	case seq < n.configSeq:
		n.sendViewTo(from, now)
	case seq > n.configSeq:
		if last, ok := n.syncSentAt[from]; ok && now-last < n.cfg.SyncMinGap {
			return
		}
		n.syncSentAt[from] = now
		buf := n.enc.AppendEncode(make([]byte, 0, 64), &wire.RapidSync{From: n.id, ConfigSeq: n.configSeq})
		n.ep.Unicast(topology.HostID(from), buf)
	default:
		if !n.memberSet[from] {
			n.sendViewTo(from, now)
		}
	}
}

// ---- receiving ----

func (n *Node) receive(pkt netsim.Packet) {
	if !n.running {
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
		if m.From >= 0 && m.From != n.id && m.ConfigSeq < n.configSeq {
			n.sendViewTo(m.From, now)
		}
	case *wire.RapidPropose:
		n.onPropose(m, now)
	case *wire.RapidVote:
		n.onVote(m, now)
	}
}

func (n *Node) onBeat(b *wire.RapidBeat, now time.Duration) {
	if b.From < 0 || b.From == n.id {
		n.ep.NoteReject()
		return
	}
	if !n.beatFresh.Advance(b.From, b.Inc, b.Beat) {
		n.ep.NoteReject()
		return
	}
	n.noteSeq(b.From, b.ConfigSeq, now)
	if b.ConfigSeq != n.configSeq || !n.subjSet[b.From] {
		return
	}
	n.lastHeard[b.From] = now
	if n.downMark[b.From] {
		n.downMark[b.From] = false
		n.sendAlert(b.From, false)
	}
}

func (n *Node) onInfo(m *wire.RapidInfo, now time.Duration) {
	id := m.Info.Node
	if id < 0 || id == n.id {
		n.ep.NoteReject()
		return
	}
	n.noteSeq(id, m.ConfigSeq, now)
	if !n.memberSet[id] {
		return
	}
	if !n.admitInfo(m.Info, membership.OriginDirect, membership.NoNode, now) {
		n.ep.NoteReject()
	}
}

// admitInfo upserts a member record behind the per-node freshness
// high-water mark: only a record strictly advancing (incarnation, version,
// beat) lands, so replayed or view-carried stale records can never regress
// any observer's view of a subject.
func (n *Node) admitInfo(info membership.MemberInfo, origin membership.Origin, relayer membership.NodeID, now time.Duration) bool {
	mark, ok := n.infoSeen[info.Node]
	if ok && info.Incarnation <= mark.inc &&
		(info.Incarnation < mark.inc || info.Version < mark.ver ||
			(info.Version == mark.ver && info.Beat <= mark.beat)) {
		return false
	}
	n.infoSeen[info.Node] = infoMark{inc: info.Incarnation, ver: info.Version, beat: info.Beat}
	n.dir.Upsert(info, origin, 0, relayer, now)
	return true
}

func (n *Node) onAlert(a *wire.RapidAlert, now time.Duration) {
	if a.Observer < 0 || a.Subject < 0 || a.Observer == a.Subject || a.Observer == n.id {
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
	if a.ConfigSeq != n.configSeq || !n.memberSet[a.Observer] || !n.memberSet[a.Subject] || a.Subject == n.id {
		return
	}
	if a.Down {
		n.cut.Down(a.Subject, a.Observer, now)
	} else {
		n.cut.Up(a.Subject, a.Observer, now)
	}
}

func (n *Node) onJoin(j *wire.RapidJoin, now time.Duration) {
	if j.From < 0 || j.From == n.id || j.Info.Node != j.From {
		n.ep.NoteReject()
		return
	}
	if n.memberSet[j.From] {
		// Already in: the joiner is behind, send it the configuration.
		n.sendViewTo(j.From, now)
		return
	}
	if p := n.joinPend[j.From]; p != nil {
		if j.Info.Incarnation > p.info.Incarnation ||
			(j.Info.Incarnation == p.info.Incarnation && j.Info.Version > p.info.Version) {
			p.info = j.Info
		}
		return
	}
	n.joinPend[j.From] = &pendingJoin{info: j.Info, at: now}
}

func (n *Node) onProbe(p *wire.RapidProbe) {
	if p.From < 0 || p.From == n.id {
		n.ep.NoteReject()
		return
	}
	buf := n.enc.AppendEncode(make([]byte, 0, 64), &wire.RapidProbeAck{From: n.id, Token: p.Token})
	n.ep.Unicast(topology.HostID(p.From), buf)
}

// onPropose is the voter side of the ratification round: veto any proposed
// evictee this node can personally contradict — itself, a monitored subject
// it is still hearing, or a member somebody reported alive within the quiet
// window. Everything else gets an OK; the proposer needs a majority of them.
func (n *Node) onPropose(p *wire.RapidPropose, now time.Duration) {
	if p.From < 0 || p.From == n.id || p.Seq == 0 {
		n.ep.NoteReject()
		return
	}
	// Proposal tokens from one proposer are monotone: a replayed round from
	// the past must not harvest fresh votes. Equal tokens are the live
	// round's retransmissions and must be re-answered.
	if mark, ok := n.propSeen[p.From]; ok && p.Token < mark {
		n.ep.NoteReject()
		return
	}
	n.propSeen[p.From] = p.Token
	if !n.memberSet[p.From] || p.Seq != n.configSeq+1 {
		n.noteSeq(p.From, p.Seq-1, now)
		return
	}
	var alive []membership.NodeID
	for _, s := range p.Evict {
		switch {
		case s == n.id:
			alive = append(alive, s)
		case n.subjSet[s] && now-n.lastHeard[s] <= n.cfg.DeadAfter():
			alive = append(alive, s)
		default:
			if lu := n.cut.LastUp(s); lu >= 0 && now-lu < n.cfg.UpQuietFor {
				alive = append(alive, s)
			}
		}
	}
	v := &wire.RapidVote{From: n.id, Token: p.Token, OK: len(alive) == 0, Alive: alive}
	n.ep.Unicast(topology.HostID(p.From), n.enc.AppendEncode(make([]byte, 0, 64), v))
}

// onVote is the proposer side: a veto aborts the round on the spot (and the
// vetoed members leave the cut — somebody still hears them), an OK counts
// toward the majority the commit gate needs.
func (n *Node) onVote(v *wire.RapidVote, now time.Duration) {
	p := n.prop
	if p == nil || v.Token != p.token || v.From < 0 || v.From == n.id || !n.memberSet[v.From] {
		n.ep.NoteReject()
		return
	}
	if !v.OK {
		for _, s := range v.Alive {
			if n.memberSet[s] {
				n.cut.Vouch(s, now)
				delete(n.confirmed, s)
				delete(n.probes, s)
			}
		}
		n.prop = nil
		n.readySince = -1
		return
	}
	p.votes[v.From] = true
}

func (n *Node) onProbeAck(a *wire.RapidProbeAck, now time.Duration) {
	ps := n.probes[a.From]
	if ps == nil || ps.token != a.Token {
		n.ep.NoteReject()
		return
	}
	delete(n.probes, a.From)
	delete(n.confirmed, a.From)
	n.cut.Vouch(a.From, now)
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
	sortIDs(members)
	for i, m := range members {
		if m < 0 || (i > 0 && members[i-1] == m) {
			n.ep.NoteReject()
			return
		}
	}
	wasMember := n.memberSet[n.id]
	n.configSeq, n.proposer = v.Seq, v.Proposer
	n.installMembers(members, now)
	n.viewsInstalled++
	// Directory diff: departed members leave atomically, carried records
	// for incoming members land behind the freshness guard.
	for _, id := range n.dir.Nodes() {
		if id != n.id && !n.memberSet[id] {
			n.dir.Remove(id, now)
		}
	}
	for _, info := range v.Infos {
		if info.Node >= 0 && info.Node != n.id && n.memberSet[info.Node] {
			n.admitInfo(info, membership.OriginRelayed, v.Proposer, now)
		}
	}
	if n.memberSet[n.id] && !wasMember {
		// Newly admitted (or re-admitted after eviction): announce our
		// record so every member's directory gets the authoritative copy.
		n.broadcastInfo()
	}
}

// ---- periodic scan: detection, arbitration, proposal, admission ----

func (n *Node) scanTick() {
	if !n.running {
		return
	}
	now := n.eng.Now()
	n.detect(now)
	if !n.memberSet[n.id] {
		n.joinLoop(now)
		return
	}
	n.arbitrate(now)
	n.pumpProposal(now)
}

// detect raises and refreshes DOWN alerts for silent subjects.
func (n *Node) detect(now time.Duration) {
	dead := n.cfg.DeadAfter()
	for _, s := range n.subjects {
		silent := now-n.lastHeard[s] > dead
		if !silent {
			continue
		}
		if !n.downMark[s] {
			n.downMark[s] = true
			n.sendAlert(s, true)
		} else if now-n.lastAlert[s] >= n.cfg.ReAlertInterval {
			n.sendAlert(s, true)
		}
	}
}

// joinLoop runs while this node is not in the installed configuration:
// rotate admission requests through the members we know, lowest (the
// likely proposer) first.
func (n *Node) joinLoop(now time.Duration) {
	if n.joinSentAt >= 0 && now-n.joinSentAt < n.cfg.JoinRetry {
		return
	}
	targets := make([]membership.NodeID, 0, len(n.members))
	for _, m := range n.members {
		if m != n.id {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		return
	}
	t := targets[n.joinTarget%len(targets)]
	n.joinTarget++
	n.joinSentAt = now
	j := &wire.RapidJoin{From: n.id, ConfigSeq: n.configSeq, Info: n.info.Clone()}
	n.ep.Unicast(topology.HostID(t), n.enc.AppendEncode(nil, j))
}

// arbitrate is the proposer side of the pipeline: classify the cut, probe
// accused subjects, and install a view change once the whole cut is
// resolved and has held steady for the batch window.
func (n *Node) arbitrate(now time.Duration) {
	stable, unstable := n.cut.Classify(now)
	cutSet := stable
	if len(unstable) > 0 {
		cutSet = append(append([]membership.NodeID(nil), stable...), unstable...)
		sortIDs(cutSet)
	}
	inCut := make(map[membership.NodeID]bool, len(cutSet))
	for _, s := range cutSet {
		inCut[s] = true
	}
	// Drop arbitration state for subjects that left the cut (vouched or
	// retracted); their stale verdicts must not leak into a proposal.
	for s := range n.confirmed {
		if !inCut[s] {
			delete(n.confirmed, s)
		}
	}
	for s := range n.probes {
		if !inCut[s] {
			delete(n.probes, s)
		}
	}
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
	if inCut[n.id] {
		// Accused ourselves: stay out of arbitration, answer probes, and
		// let the survivors decide.
		n.readySince = -1
		return
	}
	// Proposer staggering: rank r among non-accused members waits
	// r*Stagger after the oldest accusation before acting.
	rank := 0
	for _, m := range n.members {
		if m == n.id {
			break
		}
		if !inCut[m] {
			rank++
		}
	}
	firstDown := time.Duration(-1)
	for _, s := range cutSet {
		if fd := n.cut.FirstDown(s); fd >= 0 && (firstDown < 0 || fd < firstDown) {
			firstDown = fd
		}
	}
	if firstDown < 0 || now-firstDown < time.Duration(rank)*n.cfg.Stagger {
		n.readySince = -1
		return
	}
	inStable := make(map[membership.NodeID]bool, len(stable))
	for _, s := range stable {
		inStable[s] = true
	}
	for _, s := range cutSet {
		if n.confirmed[s] {
			continue
		}
		if !inStable[s] && now-n.cut.FirstDown(s) < n.cfg.ArbitrateAfter {
			continue
		}
		n.probe(s, now)
	}
	for _, s := range cutSet {
		if !n.confirmed[s] {
			n.readySince = -1
			return
		}
	}
	if n.readySince < 0 {
		n.readySince = now
		return
	}
	if now-n.readySince < n.cfg.BatchWindow {
		return
	}
	n.ensureProposal(cutSet, now)
}

// probe drives one subject's arbitration state machine: send (and resend)
// direct probes; after the retry budget, confirm the subject dead only if
// nobody anywhere heard it for UpQuietFor — otherwise keep probing (a
// lossy-but-alive member keeps generating UP evidence and is never
// confirmed).
func (n *Node) probe(s membership.NodeID, now time.Duration) {
	ps := n.probes[s]
	if ps == nil {
		n.tokens++
		ps = &probeState{token: n.tokens, deadline: now + n.cfg.ProbeTimeout}
		n.probes[s] = ps
		n.sendProbe(s, ps.token)
		return
	}
	if now < ps.deadline {
		return
	}
	if ps.tries >= n.cfg.ProbeRetries {
		if lu := n.cut.LastUp(s); lu < 0 || now-lu >= n.cfg.UpQuietFor {
			n.confirmed[s] = true
			delete(n.probes, s)
			return
		}
		ps.tries = 0 // veto active: keep cycling until the UP evidence dries up
	} else {
		ps.tries++
	}
	n.tokens++
	ps.token = n.tokens
	ps.deadline = now + n.cfg.ProbeTimeout
	n.sendProbe(s, ps.token)
}

func (n *Node) sendProbe(s membership.NodeID, token uint64) {
	buf := n.enc.AppendEncode(make([]byte, 0, 64), &wire.RapidProbe{From: n.id, Token: token})
	n.ep.Unicast(topology.HostID(s), buf)
}

// proposeJoins opens a joins-only ratification round: strictly the lowest
// member's job, batched over JoinBatchWindow.
func (n *Node) proposeJoins(now time.Duration) {
	if len(n.joinPend) == 0 || len(n.members) == 0 || n.members[0] != n.id {
		return
	}
	oldest := time.Duration(-1)
	for _, p := range n.joinPend {
		if oldest < 0 || p.at < oldest {
			oldest = p.at
		}
	}
	if now-oldest < n.cfg.JoinBatchWindow {
		return
	}
	n.ensureProposal(nil, now)
}

// ensureProposal keeps exactly one ratification round open for the desired
// eviction set: a matching round keeps collecting votes (pumpProposal
// retransmits and commits it), a different one is replaced under a fresh
// token so stragglers' votes for the old set cannot ratify the new one.
func (n *Node) ensureProposal(evict []membership.NodeID, now time.Duration) {
	if n.prop != nil && idsEqual(n.prop.evict, evict) {
		return
	}
	n.tokens++
	n.prop = &proposal{
		token:    n.tokens,
		evict:    append([]membership.NodeID(nil), evict...),
		votes:    map[membership.NodeID]bool{n.id: true},
		openedAt: now,
		sentAt:   now,
	}
	n.broadcastProposal()
}

func (n *Node) broadcastProposal() {
	p := &wire.RapidPropose{
		From:  n.id,
		Token: n.prop.token,
		Seq:   n.configSeq + 1,
		Evict: n.prop.evict,
	}
	n.broadcast(n.enc.AppendEncode(make([]byte, 0, 64), p))
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
	if now-p.sentAt >= n.cfg.ProposeRetry {
		p.sentAt = now
		n.broadcastProposal()
	}
	if now-p.openedAt < n.cfg.VoteWindow {
		return
	}
	acks := 0
	for _, ok := range p.votes {
		if ok {
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
	evictSet := make(map[membership.NodeID]bool, len(evict))
	for _, e := range evict {
		evictSet[e] = true
	}
	next := make([]membership.NodeID, 0, len(n.members)+len(n.joinPend))
	for _, m := range n.members {
		if !evictSet[m] {
			next = append(next, m)
		}
	}
	var joinInfos []membership.MemberInfo
	joiners := make([]membership.NodeID, 0, len(n.joinPend))
	for id := range n.joinPend {
		joiners = append(joiners, id)
	}
	sortIDs(joiners)
	for _, id := range joiners {
		if !evictSet[id] && !n.memberSet[id] {
			next = append(next, id)
			joinInfos = append(joinInfos, n.joinPend[id].info)
		}
	}
	sortIDs(next)
	if len(next) == 0 {
		return
	}
	v := &wire.RapidView{Seq: n.configSeq + 1, Proposer: n.id, Members: next}
	for _, info := range n.dir.Snapshot() {
		if !evictSet[info.Node] && n.memberSet[info.Node] {
			v.Infos = append(v.Infos, info)
		}
	}
	v.Infos = append(v.Infos, joinInfos...)
	buf := n.enc.AppendEncode(nil, v)
	// Deliver to everyone affected: survivors, joiners, and the evicted
	// (so a mistakenly evicted live node learns immediately and rejoins).
	targets := make(map[membership.NodeID]bool, len(n.members)+len(next))
	for _, m := range n.members {
		targets[m] = true
	}
	for _, m := range next {
		targets[m] = true
	}
	sorted := make([]membership.NodeID, 0, len(targets))
	for t := range targets {
		sorted = append(sorted, t)
	}
	sortIDs(sorted)
	for _, t := range sorted {
		if t != n.id {
			n.ep.Unicast(topology.HostID(t), buf)
		}
	}
	n.adopt(v, now)
}
