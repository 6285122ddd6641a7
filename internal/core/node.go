package core

import (
	"time"

	"repro/internal/loadinfo"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// mate is what one level of this node keeps about one sender on that level's
// channel. Nothing ever clears the guards — not the mate's expiry, our
// leaving the level, Stop or restart — so a replay of a dead node's traffic
// cannot bring it back; the session is the mate's place in the live group
// view, zeroed by drop and resetView (DESIGN.md, "Per-peer state").
type mate struct {
	mateGuards
	mateSession
}

type mateGuards struct {
	beat membership.Mark // replay guard over the channel's heartbeats (see onHeartbeat)
	// updSeq is the highest update sequence seen from the sender on this
	// channel (0 = none yet). Sequences are per channel, because an emit
	// may skip the channel the triggering information arrived on, and a
	// global sequence would make those skips look like losses.
	updSeq uint64
	// handoff is the highest Handoff sequence accepted from the sender.
	handoff uint64
}

// mateSession tracks a group mate heard directly on the channel.
type mateSession struct {
	lastHeard time.Duration
	version   uint64 // last info (incarnation, version) folded into one ordering key
	inc       uint32
	backup    membership.NodeID
	member    bool // currently in the group view; the fields above mean nothing otherwise
	leader    bool // the mate's heartbeats carry the leader flag
}

// levelState is one level's group view: who we hear on that channel, who
// leads, and whether we lead.
type levelState struct {
	level    int
	joined   bool
	joinedAt time.Duration
	hbSeq    uint64
	hbTicker *sim.Ticker
	mates    membership.Table[mate]
	members  int // mates whose session is live
	isLeader bool
	backup   membership.NodeID // our designated backup when we lead
	// bootstrapped records that we already pulled a directory from a
	// leader at this level; bootstrapFrom is the leader we are waiting on.
	bootstrapped  bool
	bootstrapFrom membership.NodeID
}

// member returns id's record if it is in the live group view, else nil.
func (lv *levelState) member(id membership.NodeID) *mate {
	if m := lv.mates.Get(id); m != nil && m.member {
		return m
	}
	return nil
}

// eachMember visits the live group view in ascending ID order.
func (lv *levelState) eachMember(fn func(membership.NodeID, *mate)) {
	lv.mates.Each(func(id membership.NodeID, m *mate) {
		if m.member {
			fn(id, m)
		}
	})
}

// drop ends a member's session and returns what it was.
func (lv *levelState) drop(m *mate) (was mateSession) {
	was, m.mateSession = m.mateSession, mateSession{}
	lv.members--
	return was
}

// resetView empties the group view — every session, no guard — and restarts
// the bootstrap, for a level we stop or start listening to.
func (lv *levelState) resetView() {
	lv.bootstrapped, lv.bootstrapFrom = false, membership.NoNode
	lv.eachMember(func(_ membership.NodeID, m *mate) { lv.drop(m) })
}

// visibleLeader returns the lowest group mate whose heartbeats carry the
// leader flag, or NoNode.
func (lv *levelState) visibleLeader() membership.NodeID {
	leader := membership.NoNode
	lv.eachMember(func(id membership.NodeID, m *mate) {
		if m.leader && leader == membership.NoNode {
			leader = id
		}
	})
	return leader
}

// Node is one cluster node running the hierarchical membership protocol.
// All methods must be called on the simulation goroutine.
type Node struct {
	cfg Config
	eng *sim.Engine
	ep  netsim.Transport
	// Self is the node's identity, directory, own record and lifecycle,
	// with the publishing API over that record.
	membership.Self
	levels    []*levelState
	tracker   *sim.Ticker
	republish *sim.Ticker

	// lastTTLScan throttles the full-directory stale-entry sweep;
	// ttlScanDue skips sweeps that provably cannot find anything (the
	// earliest-deadline bound returned by Directory.Expired).
	lastTTLScan time.Duration
	ttlScanDue  time.Duration

	// enc frames outgoing packets into buf, the node's resident send buffer
	// (frame; snapshots go through withDirectory). hb and upd are the
	// outgoing heartbeat and update message, overwritten per send (a fresh
	// one would escape through wire.Message); dirCursor is the scratch
	// cursor onDirectoryMsg walks a received snapshot with, and joined and
	// tombstoned the scratch lists the merge reports into.
	enc        wire.Encoder
	buf        []byte
	hb         wire.Heartbeat
	upd        wire.UpdateMsg
	dirCursor  wire.InfoCursor
	joined     []membership.MemberInfo
	tombstoned []membership.NodeID

	stats Stats

	// update machinery
	updCounter uint32        // my UpdateID counter
	outSeq     []uint64      // per-level update stream sequences (survive restarts)
	recent     []wire.Update // my last PiggybackDepth+1 emitted updates, newest first
	seen       *seenSet      // applied update IDs as per-origin counter runs, FIFO-bounded (lazily allocated)

	// Self-organizing hierarchy state (adaptive.go, docs/ADAPTIVE.md).
	// chan0, parentChan, reformEpoch and the heartbeat sequences survive
	// restarts, so a node that rejoins after a crash lands back in the
	// group it was re-formed into. The -1 sentinels mean "not currently
	// observed" for the sustained-condition windows.
	hotLoad      int              // external load units (SetHotLoad)
	chan0        netsim.ChannelID // level-0 channel override after a re-formation (0 = configured)
	parentChan   netsim.ChannelID // channel this group split off from (0 = original)
	reformEpoch  uint64           // highest re-formation epoch initiated or applied
	overSince    time.Duration    // leader load above watermark since (-1 = not over)
	sizeSince    time.Duration    // group size out of bounds since (-1 = in bounds)
	shedAt       time.Duration    // last load-shed instant (-1 = never)
	handoffSeq   uint64           // our outgoing Handoff sequence
	loadSeq      uint64           // our outgoing LoadReport sequence
	lastLoadPush time.Duration    // last LoadReport push instant
	loadCache    *loadinfo.Cache
}

// maxSeen bounds the dedup set.
const maxSeen = 4096

// NewNode creates a node bound to endpoint ep. The node's identity is the
// endpoint's host ID. Call Start to join the membership service.
func NewNode(cfg Config, ep netsim.Transport) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		cfg:    cfg,
		ep:     ep,
		Self:   membership.NewSelf(membership.NodeID(ep.ID()), nil),
		outSeq: make([]uint64, cfg.MaxTTL),

		overSince: -1,
		sizeSince: -1,
		shedAt:    -1,
	}
	n.levels = make([]*levelState, cfg.MaxTTL)
	for l := range n.levels {
		n.levels[l] = &levelState{level: l, bootstrapFrom: membership.NoNode}
	}
	ep.SetHandler(n.Receive)
	return n
}

// Start joins the membership service: the node enters its level-0 group,
// begins heartbeating, and bootstraps its directory from the group leader.
func (n *Node) Start(eng *sim.Engine) {
	if !n.Begin(eng) {
		return
	}
	n.eng = eng
	n.stats = Stats{}
	// Sustained-condition windows restart from scratch; the re-formation
	// lineage (chan0, parentChan, reformEpoch) deliberately survives.
	n.overSince, n.sizeSince = -1, -1
	n.Directory().SetTombstoneTTL(n.cfg.tombstoneTTL())
	n.ep.SetUp(true)
	n.joinLevel(0)
	n.tracker = sim.NewTicker(eng, n.cfg.HeartbeatInterval/2, n.cfg.HeartbeatInterval/2, n.track)
	n.republish = sim.NewJitteredTicker(eng, n.cfg.republishInterval(), func() {
		if !n.anyLeader() {
			return
		}
		n.publishDirectory(allLevels)
	})
}

// Leave departs the membership service gracefully: the node announces its
// own departure on every joined channel — an authoritative update that
// group mates apply immediately and relay across the tree — and then stops.
// The cluster converges in one relay time instead of waiting out the
// MaxLoss detection window.
func (n *Node) Leave() {
	if !n.Running() {
		return
	}
	n.updCounter++
	u := wire.Update{
		ID:      wire.UpdateID{Origin: n.ID(), Counter: n.updCounter},
		Kind:    wire.UDepart,
		Subject: n.ID(),
	}
	n.markSeen(u.ID)
	n.stats.UpdatesOriginated++
	n.emitUpdate(&u, -1)
	n.Stop()
}

// Stop kills the membership daemon: all timers stop and the endpoint goes
// silent, exactly like the paper's experiment that kills the daemon process
// to emulate a node failure. The directory is left as-is.
func (n *Node) Stop() {
	if !n.End() {
		return
	}
	for _, lv := range n.levels {
		if lv.hbTicker != nil {
			lv.hbTicker.Stop()
			lv.hbTicker = nil
		}
		if lv.joined {
			n.ep.Leave(n.channelOf(lv.level))
			lv.joined = false
		}
		lv.isLeader = false
		lv.resetView()
	}
	if n.tracker != nil {
		n.tracker.Stop()
		n.tracker = nil
	}
	if n.republish != nil {
		n.republish.Stop()
		n.republish = nil
	}
	n.ep.SetUp(false)
}

// IsLeader reports whether the node currently leads its group at the given
// level.
func (n *Node) IsLeader(level int) bool {
	if level < 0 || level >= len(n.levels) {
		return false
	}
	return n.levels[level].isLeader
}

// Levels returns the levels whose channels the node has joined.
func (n *Node) Levels() []int {
	var out []int
	for _, lv := range n.levels {
		if lv.joined {
			out = append(out, lv.level)
		}
	}
	return out
}

// GroupMembers returns the group mates currently heard directly on the
// level's channel (excluding this node), in ascending ID order — the
// protocol's live view of its group, as opposed to the topology's static
// TTL scope.
func (n *Node) GroupMembers(level int) []membership.NodeID {
	if level < 0 || level >= len(n.levels) || !n.levels[level].joined {
		return nil
	}
	lv := n.levels[level]
	out := make([]membership.NodeID, 0, lv.members)
	lv.eachMember(func(id membership.NodeID, _ *mate) { out = append(out, id) })
	return out
}

// Leader returns the node currently believed to lead the level's group:
// this node itself, a group mate whose heartbeats carry the leader flag,
// or NoNode while leaderless.
func (n *Node) Leader(level int) membership.NodeID {
	if level < 0 || level >= len(n.levels) || !n.levels[level].joined {
		return membership.NoNode
	}
	lv := n.levels[level]
	if lv.isLeader {
		return n.ID()
	}
	return lv.visibleLeader()
}

// joinLevel subscribes to the level's channel and starts heartbeating
// there.
func (n *Node) joinLevel(level int) {
	lv := n.levels[level]
	if lv.joined || level >= n.cfg.MaxTTL {
		return
	}
	lv.joined = true
	lv.joinedAt = n.eng.Now()
	lv.resetView()
	n.ep.Join(n.channelOf(level))
	// First heartbeat goes out immediately so peers learn about us fast;
	// subsequent ones follow the configured period. A small deterministic
	// jitter desynchronizes nodes that start at the same instant.
	jitter := time.Duration(n.eng.Rand().Int63n(int64(n.cfg.HeartbeatInterval / 4)))
	lv.hbTicker = sim.NewTicker(n.eng, jitter, n.cfg.HeartbeatInterval, func() {
		n.sendHeartbeat(level)
	})
	// Bootstrap after we have listened for long enough to spot the leader
	// flag in incoming heartbeats.
	n.eng.Schedule(n.cfg.HeartbeatInterval+jitter, func() { n.bootstrap(level) })
}

// leaveLevel abandons a level (used when abdicating leadership below it)
// and cascades out of any higher levels we only occupied as a leader.
func (n *Node) leaveLevel(level int) {
	lv := n.levels[level]
	if !lv.joined {
		return
	}
	lv.joined = false
	if lv.hbTicker != nil {
		lv.hbTicker.Stop()
		lv.hbTicker = nil
	}
	n.ep.Leave(n.channelOf(level))
	if lv.isLeader {
		n.setLeader(level, false)
	}
	lv.resetView()
}

// setLeader flips our leadership at a level, joining or leaving the next
// level's channel accordingly.
func (n *Node) setLeader(level int, lead bool) {
	lv := n.levels[level]
	if lv.isLeader == lead {
		return
	}
	lv.isLeader = lead
	if lead {
		n.stats.Elections++
		lv.backup = n.pickBackup(level)
		if level < n.cfg.MaxTTL-1 {
			n.joinLevel(level + 1)
		}
		// Announce leadership immediately rather than waiting a period.
		n.sendHeartbeat(level)
		// Refresh our group with everything we know so entries relayed by
		// the previous leader are re-anchored to us (Timeout Protocol
		// recovery path).
		n.publishDirectory(level)
	} else {
		n.stats.Abdications++
		lv.backup = membership.NoNode
		if level < n.cfg.MaxTTL-1 {
			n.leaveLevel(level + 1)
		}
	}
}

// pickBackup chooses a random live group mate as backup leader: the RNG
// draws a rank in the ascending ID order.
func (n *Node) pickBackup(level int) membership.NodeID {
	lv := n.levels[level]
	if lv.members == 0 {
		return membership.NoNode
	}
	rank, pick := n.eng.Rand().Intn(lv.members), membership.NoNode
	lv.eachMember(func(id membership.NodeID, _ *mate) {
		if rank == 0 {
			pick = id
		}
		rank--
	})
	return pick
}

// sendHeartbeat multicasts our announcement on one level's channel.
func (n *Node) sendHeartbeat(level int) {
	if !n.Running() {
		return
	}
	lv := n.levels[level]
	if !lv.joined {
		return
	}
	// Overload model: a node past the watermark stops relaying but never
	// goes silent in its own group — level-0 heartbeats are the liveness
	// signal, level>=1 heartbeats are relay duty.
	if level > 0 && n.relayStarved() {
		n.stats.RelaysStarved++
		return
	}
	lv.hbSeq++
	n.stats.HeartbeatsSent++
	info := n.Record()
	if level == 0 {
		// The liveness beat advances once per heartbeat period; every node
		// is always joined to level 0. The node's own directory record
		// follows, so a snapshot it publishes never offers its mates a beat
		// below the one they heard from it directly.
		info.Beat++
		n.Directory().Get(info.Node).Beat = info.Beat // present from Start on: it never expires
	}
	n.hb = wire.Heartbeat{
		Info:   *info, // encoded synchronously below, so no defensive clone
		Level:  uint8(level),
		Leader: lv.isLeader,
		Backup: lv.backup,
		Seq:    lv.hbSeq,
		Pad:    uint16(n.cfg.HeartbeatPad),
	}
	n.ep.Multicast(n.channelOf(level), ttl(level), n.frame(&n.hb))
}

// frame encodes m into the node's send buffer, good until the next frame.
func (n *Node) frame(m wire.Message) []byte {
	n.buf = n.enc.AppendEncode(n.buf[:0], m)
	return n.buf
}

// withDirectory frames the node's directory snapshot once for send, into
// the buffer its transport lends (32 KB at N=1000, sent often by few nodes,
// so no node keeps one of its own).
func (n *Node) withDirectory(ask bool, send func(snapshot []byte)) {
	b := n.ep.Scratch()
	*b = wire.AppendDirectory((*b)[:0], n.ID(), ask, n.Directory())
	send(*b)
}

// allLevels asks publishDirectory for every joined group.
const allLevels = -1

// publishDirectory multicasts a full snapshot into the group at level, or
// into every joined group for allLevels; receivers re-anchor relayed
// entries to us. The snapshot is encoded once for every channel.
func (n *Node) publishDirectory(level int) {
	if !n.Running() {
		return
	}
	n.withDirectory(false, func(snapshot []byte) {
		for _, lv := range n.levels {
			if !lv.joined || (level != allLevels && lv.level != level) {
				continue
			}
			if n.relayStarved() {
				n.stats.RelaysStarved++
				continue
			}
			n.ep.Multicast(n.channelOf(lv.level), ttl(lv.level), snapshot)
		}
	})
}

// Receive handles one delivered packet. NewNode installs it as the endpoint
// handler; a layer that shares the endpoint (a service runtime) installs its
// mux in its place and delegates membership packets here.
func (n *Node) Receive(pkt netsim.Packet) {
	if !n.Running() {
		return
	}
	msg, err := pkt.Decode()
	if err != nil {
		// UDP: corrupt packets are dropped, but the drop is observable.
		n.stats.PacketsRejected++
		n.ep.NoteReject()
		return
	}
	level := -1
	if pkt.Multicast() {
		level = n.levelFor(pkt.Channel)
		if level < 0 || level >= len(n.levels) || !n.levels[level].joined {
			return
		}
	}
	switch m := msg.(type) {
	case *wire.Heartbeat:
		if level >= 0 {
			n.onHeartbeat(level, m)
		}
	case *wire.UpdateMsg:
		n.onUpdateMsg(level, m)
	case *wire.BootstrapRequest:
		n.onBootstrapRequest(m)
	case *wire.DirectoryView:
		n.onDirectoryMsg(level, m)
	case *wire.SyncRequest:
		n.onSyncRequest(m)
	case *wire.Handoff:
		if level >= 0 {
			n.onHandoff(level, m)
		}
	case *wire.Reform:
		if level == 0 {
			n.onReform(m)
		}
	case *wire.LoadReport:
		n.onLoadReport(m)
	}
}

// onHeartbeat processes a group mate's announcement at one level.
func (n *Node) onHeartbeat(level int, hb *wire.Heartbeat) {
	from := hb.Info.Node
	if from == n.ID() {
		return
	}
	if from < 0 {
		n.stats.PacketsRejected++
		n.ep.NoteReject()
		return
	}
	// Freshness guard: a heartbeat is only evidence of life if its
	// (incarnation, sequence) advances past everything already accepted from
	// this sender on this channel. Replayed, duplicated, or stale-delivered
	// copies fail the test and are dropped before they can touch lastHeard
	// or the directory — old packets may cost liveness (a dropped refresh)
	// but can never fake it.
	lv := n.levels[level]
	ms := lv.mates.Ensure(from)
	if !ms.beat.Advance(hb.Info.Incarnation, hb.Seq) {
		n.stats.PacketsRejected++
		n.ep.NoteReject()
		return
	}
	n.stats.HeartbeatsReceived++
	now := n.eng.Now()
	known := ms.member
	if !known {
		ms.member = true
		lv.members++
	}
	ms.lastHeard = now
	ms.leader = hb.Leader
	ms.backup = hb.Backup
	newInfo := hb.Info.Incarnation != ms.inc || hb.Info.Version != ms.version
	ms.inc, ms.version = hb.Info.Incarnation, hb.Info.Version

	prev := n.Directory().Get(from)
	changed := prev != nil && hb.Info.Prefix().Newer(prev.InfoPrefix)
	n.Directory().Upsert(hb.Info, membership.OriginDirect, level, membership.NoNode, now)

	// Any member that leads some group announces direct observations to
	// the rest of the tree ("a group leader will also inform all other
	// groups when a new node joins"): a newly heard group mate or changed
	// info becomes an update flooded on every joined channel, which
	// members of those groups relay onward (Fig. 5). Keyed on first
	// hearing at this level — not on directory novelty — so a leader that
	// already learned the node via bootstrap still tells its own group.
	if n.anyLeader() {
		if !known {
			n.originateUpdate(wire.UJoin, from, hb.Info, -1)
		} else if changed && newInfo {
			n.originateUpdate(wire.UChange, from, hb.Info, -1)
		}
	}
	// Conflict resolution: if we lead this level but a lower-ID leader is
	// visible, abdicate ("a group leader cannot see other leaders at the
	// same level").
	if hb.Leader && lv.isLeader && from < n.ID() {
		n.setLeader(level, false)
	}
}

// anyLeader reports whether we lead at any level (and therefore have relay
// duties).
func (n *Node) anyLeader() bool {
	for _, lv := range n.levels {
		if lv.isLeader {
			return true
		}
	}
	return false
}

// track is the Status Tracker: expire silent group mates, cascade the
// timeout protocol, run elections.
func (n *Node) track() {
	if !n.Running() {
		return
	}
	now := n.eng.Now()
	for _, lv := range n.levels {
		if !lv.joined {
			continue
		}
		deadAfter := n.cfg.DeadAfterLevel(lv.level)
		// onMemberDead emits directory events and (at the leader) originates
		// updates, so when a fault expires several mates on the same tick
		// the order they are processed in is part of the run: ascending.
		lv.eachMember(func(id membership.NodeID, ms *mate) {
			if now-ms.lastHeard > deadAfter {
				n.onMemberDead(lv.level, id, lv.drop(ms))
			}
		})
		n.elect(lv.level)
	}
	n.adaptiveTrack(now)
	// Timeout Protocol, liveness-evidence form: relayed entries whose
	// heartbeat counter has stopped advancing are purged, which is how a
	// partitioned subtree eventually disappears from every directory. The
	// full sweep is O(directory), so it runs at a fraction of the TTL, not
	// on every tracker tick.
	relayedTTL := n.cfg.RelayedTTL()
	if now-n.lastTTLScan >= relayedTTL/8 {
		// Advance the throttle even when the sweep below is skipped, so
		// sweep instants (and hence purge timestamps) stay on the exact
		// same grid whether or not the skip fires.
		n.lastTTLScan = now
		if now >= n.ttlScanDue {
			stale, next := n.Directory().Expired(now, func(e *membership.Entry) time.Duration {
				if e.Origin == membership.OriginRelayed {
					return relayedTTL
				}
				return 4 * relayedTTL // backstop for orphaned direct entries
			})
			spared := false
			for _, id := range stale {
				if !n.hearsDirectly(id) {
					n.Directory().Remove(id, now)
					n.stats.RelayedPurged++
				} else {
					spared = true
				}
			}
			// Refreshes only push deadlines later and post-sweep entries
			// start fresh, so nothing can expire before min(next,
			// now+relayedTTL): sweeps before then provably find nothing
			// and are skipped. An expired-but-directly-heard entry keeps
			// its past deadline, so its presence disables the skip.
			n.ttlScanDue = 0
			if !spared {
				n.ttlScanDue = now + relayedTTL
				if next < n.ttlScanDue {
					n.ttlScanDue = next
				}
			}
		}
	}
}

// onMemberDead handles the death of a directly heard group mate.
func (n *Node) onMemberDead(level int, id membership.NodeID, ms mateSession) {
	n.stats.MembersExpired++
	now := n.eng.Now()
	// Every group member detects the failure independently and drops the
	// node, unless another level still hears it; the leader additionally
	// propagates it.
	if !n.hearsDirectly(id) {
		if n.Directory().Remove(id, now) {
			// Any group mate that leads some group announces the death to
			// the tree — in particular, when a group's own leader dies the
			// surviving members at its level (each a leader one level
			// down) are the ones who must tell their subtrees (Fig. 4:
			// node B multicasts the failure in both groups it joins).
			if n.anyLeader() {
				n.originateUpdate(wire.ULeave, id, membership.MemberInfo{}, -1)
			}
		}
		// Timeout Protocol: information relayed by the dead node dies with
		// it, after a per-level grace that gives replacement leaders time
		// to re-publish.
		n.schedulePurgeRelayedBy(id, level, now)
	}
	if n.loadCache != nil {
		n.loadCache.Forget(id)
	}
	// Backup promotion: if the dead mate was our group leader and we are
	// its designated backup, take over instantly — unless we are ourselves
	// overloaded, in which case the patience election finds someone else.
	if ms.leader && ms.backup == n.ID() && !n.levels[level].isLeader &&
		!(n.cfg.Adaptive && n.relayStarved()) {
		n.setLeader(level, true)
	}
}

// schedulePurgeRelayedBy purges, after the level-scaled grace period,
// every entry whose relayer was the dead node and that has not been
// refreshed by a replacement leader in the meantime.
func (n *Node) schedulePurgeRelayedBy(dead membership.NodeID, level int, deathTime time.Duration) {
	// The grace must exceed the republication cadence: entries about live
	// nodes that merely had the dead node as their last relayer get fresh
	// evidence (advancing beats) from surviving leaders within one
	// republish interval, cancelling the purge.
	grace := n.cfg.republishInterval() + n.cfg.levelGrace()*time.Duration(level+1)
	n.eng.Schedule(grace, func() {
		if !n.Running() {
			return
		}
		for _, victim := range n.Directory().RelayedBy(dead) {
			e := n.Directory().Get(victim)
			if e == nil || e.LastRefresh > deathTime {
				continue // refreshed since; a new leader took over
			}
			n.Directory().Remove(victim, n.eng.Now())
			n.stats.RelayedPurged++
		}
	})
}

// elect implements the bully election with the paper's constraint that a
// node does not contend while any leader is visible at the level.
func (n *Node) elect(level int) {
	lv := n.levels[level]
	now := n.eng.Now()
	if now-lv.joinedAt < n.cfg.electionPatience() {
		return
	}
	if lv.isLeader {
		return // conflict abdication happens in onHeartbeat
	}
	if lv.visibleLeader() != membership.NoNode {
		return
	}
	// After shedding for load, an adaptive node that is still overloaded
	// sits out elections for a holdoff so the bully rule cannot re-install
	// it over the Handoff successor; once the holdoff passes, a group that
	// is still leaderless takes the degraded leader back as a last resort.
	if n.cfg.Adaptive && n.shedAt >= 0 && n.relayStarved() && lv.members > 0 &&
		now-n.shedAt < time.Duration(overloadHoldoffFactor)*n.cfg.electionPatience() {
		return
	}
	lowest := true
	lv.eachMember(func(id membership.NodeID, _ *mate) { lowest = lowest && n.ID() < id })
	if lowest {
		n.setLeader(level, true)
	}
}
