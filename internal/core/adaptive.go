package core

// Self-organizing hierarchy (docs/ADAPTIVE.md). The paper forms the
// TTL-scoped tree once and then freezes it; this file makes the tree a
// maintained structure. Two mechanisms, both gated on Config.Adaptive so
// the static protocol stays byte-identical:
//
//   - Leader load shedding: every member pushes its load (external hot
//     load plus live relay fan-out) to its level-0 leader via
//     wire.LoadReport, absorbed into a loadinfo.Cache. A leader whose own
//     load stays above the watermark for loadWindowBeats abdicates with a
//     wire.Handoff naming the least-loaded eligible member, instead of
//     letting the bully election re-install the same (lowest-ID, still
//     hot) node.
//   - Group re-formation: a leader whose live group size stays outside
//     [GroupMin, GroupMax] for reformHoldBeats initiates an epoch-guarded
//     wire.Reform round — an oversized group splits its upper ID half
//     onto a fresh channel, an undersized split-off group merges back
//     onto the channel it split from.
//
// Independent of Adaptive, a node with nonzero external load above the
// watermark starves its relay duties (level>=1 heartbeats, directory
// publishes, upward update relays): that is the overload model the chaos
// hot-leader scenario injects, and it applies to the static scheme too —
// only the response differs.

import (
	"time"

	"repro/internal/loadinfo"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// loadPushPeriod is how often an adaptive member unicasts its load sample
// to its level-0 leader, and loadCacheTTLBeats how many heartbeat periods
// a sample stays usable at the leader.
const (
	loadPushBeats     = 2
	loadCacheTTLBeats = 4
)

// The adaptive hierarchy's watermarks, the same for every adaptive node.
const (
	// adaptiveLoadWatermark is the sustained relay load (external load units
	// set by the host plus live fan-out across led levels) above which an
	// adaptive leader abdicates. A static node's watermark is 0: any hot
	// load starves its relay duties (relayStarved).
	adaptiveLoadWatermark = 12
	// loadWindowBeats is how many heartbeat periods the load must stay above
	// the watermark before an adaptive leader sheds leadership.
	loadWindowBeats = 5
	// reformHoldBeats is how many heartbeat periods a group's live size must
	// stay out of bounds before its leader initiates a re-formation round;
	// it comfortably exceeds bootstrap and election transients.
	reformHoldBeats = 6
)

// GroupMin and GroupMax bound the live level-0 group size an adaptive
// hierarchy converges back to: a group sustaining more than GroupMax live
// members splits (the upper half of the ID order moves to a fresh channel),
// and a split-off group sustaining fewer than GroupMin live members merges
// back onto its parent channel. The re-formation audit holds groups to
// them.
const (
	GroupMin = 2
	GroupMax = 12
)

// loadWatermark is the relay load above which the node's relay duties
// starve and, when adaptive, it sheds leadership.
func (c Config) loadWatermark() int {
	if c.Adaptive {
		return adaptiveLoadWatermark
	}
	return 0
}

// ReformSettle is the closed-form re-formation deadline past a plain
// hierarchy's settle time (docs/ADAPTIVE.md): the overload window before a
// leader sheds, the size window before a split or merge fires, an election
// round for the successor, and a republish cadence for the moved group's
// directory entries to re-relay upward.
func (c Config) ReformSettle() time.Duration {
	return c.beats(loadWindowBeats + reformHoldBeats + electionPatienceBeats + republishBeats)
}

// overloadHoldoffFactor scales the election patience into the window after a
// load shed during which the (still hot) ex-leader refuses to contend in
// elections, so the bully rule cannot immediately re-install it. After the
// holdoff a leaderless group takes the degraded leader back — leadership
// under load beats no leadership.
const overloadHoldoffFactor = 3

// SetHotLoad models an external load of the given units co-hosted on this
// node (the chaos `hot-leader` verb). Load units add to the node's relay
// fan-out in every watermark comparison; zero heals the node.
func (n *Node) SetHotLoad(units int) {
	if units < 0 {
		units = 0
	}
	n.hotLoad = units
}

// Load is the node's current relay load: external hot load plus the live
// fan-out of every group it leads.
func (n *Node) Load() int {
	l := n.hotLoad
	for _, lv := range n.levels {
		if lv.joined && lv.isLeader {
			l += lv.members
		}
	}
	return l
}

// relayStarved reports whether the overload model suppresses this node's
// relay duties: an external hot load has pushed it past the watermark
// (with the static watermark 0, any hot load starves). Level-0 heartbeats are
// never starved — the node stays alive to its group, it just stops
// relaying, which is precisely the failure mode that degrades the static
// tree.
func (n *Node) relayStarved() bool {
	return n.hotLoad > 0 && n.Load() > n.cfg.loadWatermark()
}

// Level0Channel exposes the node's current level-0 channel — the group
// identity the invariant auditor's re-formation check partitions by.
func (n *Node) Level0Channel() int { return int(n.channelOf(0)) }

// Level0Parent exposes the channel this node's group split away from
// (zero for original groups). The auditor enforces the group-size lower
// bound only on split-off groups, which can merge back; an original group
// whittled down by kills has no merge partner and must not be penalized.
func (n *Node) Level0Parent() int { return int(n.parentChan) }

// channelOf resolves a level to its current channel: re-formation rounds
// re-home level 0, every other level keeps the configured derivation.
func (n *Node) channelOf(level int) netsim.ChannelID {
	if level == 0 && n.chan0 != 0 {
		return n.chan0
	}
	return n.cfg.channel(level)
}

// levelFor maps a received multicast channel to a level, honoring the
// level-0 re-home: after a move, packets for the configured base channel
// no longer concern us (and we have left it), while the adopted channel
// is level 0.
func (n *Node) levelFor(ch netsim.ChannelID) int {
	if ch == n.channelOf(0) {
		return 0
	}
	if n.chan0 != 0 && ch == n.cfg.channel(0) {
		return -1
	}
	if l := n.cfg.levelOf(ch); l > 0 {
		return l
	}
	return -1
}

// adaptiveTrack runs on every tracker tick after expiry/election handling:
// load dissemination, the shed watermark, and the re-formation bounds.
func (n *Node) adaptiveTrack(now time.Duration) {
	if !n.cfg.Adaptive {
		return
	}
	n.pushLoad(now)
	lv := n.levels[0]
	if !lv.joined || !lv.isLeader {
		n.overSince, n.sizeSince = -1, -1
		return
	}
	// Shed check: sustained external overload at a leader hands the role
	// to the least-loaded member. Structural load (a big fan-out without
	// hot load) is the re-formation check's business — a successor would
	// inherit the same fan-out, so shedding cannot help there.
	if n.relayStarved() {
		if n.overSince < 0 {
			n.overSince = now
		} else if now-n.overSince >= n.cfg.beats(loadWindowBeats) {
			n.shedLeadership(0, now)
		}
	} else {
		n.overSince = -1
	}
	// Re-formation check: sustained out-of-bounds live size splits or
	// merges the group. sizeSince re-arms after each round so a lost
	// Reform multicast is retried (with a fresh epoch) one hold later.
	if !lv.isLeader { // the shed above abdicated
		return
	}
	live := lv.members + 1
	oversized := live > GroupMax
	undersized := live < GroupMin && n.parentChan != 0
	if oversized || undersized {
		if n.sizeSince < 0 {
			n.sizeSince = now
		} else if now-n.sizeSince >= n.cfg.beats(reformHoldBeats) {
			if oversized {
				n.initiateSplit()
			} else {
				n.initiateMerge()
			}
			n.sizeSince = now
		}
	} else {
		n.sizeSince = -1
	}
}

// pushLoad unicasts this node's load sample to its level-0 leader every
// loadPushBeats heartbeat periods, feeding the leader's successor choice.
func (n *Node) pushLoad(now time.Duration) {
	if now-n.lastLoadPush < time.Duration(loadPushBeats)*n.cfg.HeartbeatInterval {
		return
	}
	n.lastLoadPush = now
	leader := n.Leader(0)
	if leader == membership.NoNode || leader == n.id {
		return
	}
	n.loadSeq++
	msg := &wire.LoadReport{From: n.id, Seq: n.loadSeq, Load: uint32(n.Load())}
	n.ep.Unicast(topoHost(leader), n.frame(msg))
}

// onLoadReport absorbs a member's pushed load sample at the leader.
// Non-adaptive nodes ignore the packet silently: on shared endpoints the
// message may belong to the service-layer load protocol.
func (n *Node) onLoadReport(m *wire.LoadReport) {
	if !n.cfg.Adaptive || m.From < 0 {
		return
	}
	if n.loadCache == nil {
		n.loadCache = loadinfo.NewCache(n.eng, time.Duration(loadCacheTTLBeats)*n.cfg.HeartbeatInterval)
	}
	n.loadCache.Absorb(m)
}

// shedLeadership abdicates the level under sustained overload, multicasting
// a Handoff that installs the least-loaded eligible member. Without an
// eligible successor the leader soldiers on — degraded relays beat none.
func (n *Node) shedLeadership(level int, now time.Duration) {
	succ := n.leastLoadedMember(level)
	if succ == membership.NoNode {
		n.overSince = now // re-arm; membership may change
		return
	}
	n.handoffSeq++
	n.stats.LoadSheds++
	msg := &wire.Handoff{From: n.id, Level: uint8(level), Seq: n.handoffSeq, Successor: succ}
	n.ep.Multicast(n.channelOf(level), ttl(level), n.frame(msg))
	n.shedAt = now
	n.overSince = -1
	n.setLeader(level, false)
}

// leastLoadedMember picks the successor: the live group mate with the
// lowest (reported load, ID), skipping anyone whose reported load already
// exceeds the watermark. Members without a fresh sample count as load 0 —
// optimistic, and deterministic either way.
func (n *Node) leastLoadedMember(level int) membership.NodeID {
	best, bestLoad := membership.NoNode, 0
	n.levels[level].eachMember(func(id membership.NodeID, _ *mate) {
		load := 0
		if n.loadCache != nil {
			if s, ok := n.loadCache.Get(id); ok {
				load = int(s.Load)
			}
		}
		if load > adaptiveLoadWatermark {
			return
		}
		if best == membership.NoNode || load < bestLoad {
			best, bestLoad = id, load
		}
	})
	return best
}

// onHandoff applies a leader's abdication directive: the sender stops
// being our leader, and if we are the named successor we take over
// immediately — no election gap, no chance for the bully rule to
// re-install the overloaded lowest ID.
func (n *Node) onHandoff(level int, m *wire.Handoff) {
	if !n.cfg.Adaptive || m.From == n.id || m.From < 0 {
		return
	}
	lv := n.levels[level]
	if !lv.joined {
		return
	}
	from := lv.mates.Ensure(m.From)
	if m.Seq <= from.handoff {
		n.stats.PacketsRejected++
		n.ep.NoteReject()
		return
	}
	from.handoff = m.Seq
	from.leader = false
	if m.Successor == n.id && !lv.isLeader {
		n.setLeader(level, true)
	}
}

// initiateSplit moves the upper ID half of an oversized group onto a fresh
// channel. The initiating leader is the lowest ID, so it always stays; the
// movers elect their own leader on the new channel after the usual
// patience.
func (n *Node) initiateSplit() {
	ids := n.group0()
	keep := (len(ids) + 1) / 2
	movers := ids[keep:]
	if len(movers) == 0 {
		return
	}
	n.sendReform(movers, n.splitChannel())
}

// splitChannel derives the fresh channel for the next split round:
// epoch-distinct within a group lineage, and salted with the initiator ID
// so concurrent splits by sibling groups sharing one multicast scope do
// not collide.
func (n *Node) splitChannel() netsim.ChannelID {
	return n.cfg.ReformChannelBase +
		netsim.ChannelID(n.reformEpoch+1)*16 +
		netsim.ChannelID(uint32(n.id)%16)
}

// initiateMerge folds an undersized split-off group back onto its parent
// channel: every member, the leader included, moves.
func (n *Node) initiateMerge() {
	n.sendReform(n.group0(), n.parentChan)
}

// group0 returns the live level-0 group, this node included, in ascending
// ID order.
func (n *Node) group0() []membership.NodeID {
	lv := n.levels[0]
	ids := make([]membership.NodeID, 0, lv.members+1)
	self := true
	lv.eachMember(func(id membership.NodeID, _ *mate) {
		if self && n.id < id {
			ids, self = append(ids, n.id), false
		}
		ids = append(ids, id)
	})
	if self {
		ids = append(ids, n.id)
	}
	return ids
}

// sendReform multicasts one epoch-guarded re-formation round on the
// current level-0 channel and applies it locally if the initiator itself
// moves (merge).
func (n *Node) sendReform(movers []membership.NodeID, newch netsim.ChannelID) {
	n.reformEpoch++
	n.stats.Reformations++
	msg := &wire.Reform{From: n.id, Epoch: n.reformEpoch, NewChannel: uint32(newch), Movers: movers}
	n.ep.Multicast(n.channelOf(0), ttl(0), n.frame(msg))
	for _, id := range movers {
		if id == n.id {
			n.rehome(newch)
			break
		}
	}
}

// onReform applies a received re-formation round. The epoch guard makes
// retransmissions and replays idempotent: rounds at or below the last
// epoch acted on are dropped.
func (n *Node) onReform(m *wire.Reform) {
	if !n.cfg.Adaptive || m.From == n.id || m.From < 0 {
		return
	}
	if m.Epoch <= n.reformEpoch {
		n.stats.PacketsRejected++
		n.ep.NoteReject()
		return
	}
	n.reformEpoch = m.Epoch
	for _, id := range m.Movers {
		if id == n.id {
			n.stats.Reformations++
			n.rehome(netsim.ChannelID(m.NewChannel))
			return
		}
	}
}

// rehome moves this node's level-0 membership onto a new channel: leave
// the old channel (abdicating first — leadership does not survive a
// move), join the new one, and restart the group view so election
// patience and bootstrap run against the new cohort. The channel and the
// split lineage survive restarts, like the update sequences.
func (n *Node) rehome(newch netsim.ChannelID) {
	old := n.channelOf(0)
	if newch == 0 || newch == old {
		return
	}
	lv := n.levels[0]
	if lv.isLeader {
		n.setLeader(0, false)
	}
	if lv.joined {
		n.ep.Leave(old)
	}
	if newch == n.parentChan {
		n.parentChan = 0 // merged home; no lineage to fold back into
	} else {
		n.parentChan = old
	}
	n.chan0 = newch
	n.overSince, n.sizeSince = -1, -1
	if lv.joined {
		n.ep.Join(newch)
		lv.joinedAt = n.eng.Now()
		lv.resetView()
		// Announce ourselves to the new cohort immediately; hbSeq continues
		// so receivers' freshness marks keep advancing.
		n.sendHeartbeat(0)
	}
}
