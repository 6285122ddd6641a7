package core

import (
	"repro/internal/membership"
	"repro/internal/wire"
)

// originateUpdate creates a new membership change notification and floods
// it over the tree. exceptLevel is the level whose channel the triggering
// information arrived on (-1 to send everywhere); the group there learns of
// the change from its own heartbeats or detection.
func (n *Node) originateUpdate(kind wire.UpdateKind, subject membership.NodeID, info membership.MemberInfo, exceptLevel int) {
	n.updCounter++
	u := wire.Update{
		ID:      wire.UpdateID{Origin: n.id, Counter: n.updCounter},
		Kind:    kind,
		Subject: subject,
	}
	if kind != wire.ULeave {
		u.Info = info.Clone()
	}
	n.markSeen(u.ID)
	n.stats.UpdatesOriginated++
	n.emitUpdate(&u, exceptLevel)
}

// emitUpdate appends one update to our outgoing stream and multicasts it —
// piggybacking the previous PiggybackDepth updates — on every channel we
// have joined except exceptLevel. Only leaders are joined to more than one
// channel, so this realizes the paper's relay pattern: updates travel up to
// the parent group and down into every group the receiving members lead.
// u is copied into the stream; the caller keeps it.
func (n *Node) emitUpdate(u *wire.Update, exceptLevel int) {
	// recent is newest-first; shift in place instead of re-allocating the
	// prepend on every originated update.
	if max := n.cfg.PiggybackDepth + 1; len(n.recent) < max {
		n.recent = append(n.recent, wire.Update{})
	}
	copy(n.recent[1:], n.recent)
	n.recent[0] = *u
	// Sequences are per channel so a channel skipped by one emit does not
	// look lossy to its subscribers. The messages borrow n.recent directly:
	// encoding consumes it synchronously and nothing below mutates it.
	starved := n.relayStarved()
	for _, lv := range n.levels {
		if !lv.joined || lv.level == exceptLevel {
			continue
		}
		// Overload model: upward relays stop past the watermark. The level-0
		// emission survives so the node's own group still hears it. Skipped
		// channels consume no sequence, so subscribers see no loss.
		if lv.level > 0 && starved {
			n.stats.RelaysStarved++
			continue
		}
		n.outSeq[lv.level]++
		n.upd = wire.UpdateMsg{Sender: n.id, Seq: n.outSeq[lv.level], Updates: n.recent}
		n.ep.Multicast(n.channelOf(lv.level), ttl(lv.level), n.frame(&n.upd))
	}
}

// onUpdateMsg processes an update message heard on channel level (-1 for
// unicast, which the protocol does not normally use for updates).
func (n *Node) onUpdateMsg(level int, m *wire.UpdateMsg) {
	if m.Sender == n.id {
		return
	}
	if m.Seq > 0 && level >= 0 {
		sender := n.levels[level].mates.Ensure(m.Sender)
		last := sender.updSeq
		if m.Seq > last {
			sender.updSeq = m.Seq
		}
		switch {
		case last == 0 || m.Seq <= last:
			// The stream's first message here, or a duplicate or reordered
			// one; UID dedup below still applies piggybacked updates we
			// may have missed.
		case m.Seq-last > uint64(len(m.Updates)):
			// More consecutive losses than the piggyback covers: fall
			// back to full synchronization with the sender (Message Loss
			// Detection).
			n.stats.SyncsRequested++
			n.ep.Unicast(topoHost(m.Sender), n.frame(&wire.SyncRequest{From: n.id}))
		}
	}
	// Apply oldest-first so causality within the stream is preserved.
	for i := len(m.Updates) - 1; i >= 0; i-- {
		n.applyUpdate(&m.Updates[i], level, m.Sender)
	}
}

// applyUpdate applies one membership change if unseen and relays it. u is
// part of a decoded message that every receiver on this logical process
// reads, so it is never written.
func (n *Node) applyUpdate(u *wire.Update, level int, relayer membership.NodeID) {
	if n.seen.has(u.ID) {
		n.stats.DuplicateUpdates++
		return
	}
	if n.seen == nil {
		n.seen = new(seenSet)
	}
	n.seen.add(u.ID)
	n.stats.UpdatesApplied++
	now := n.eng.Now()
	lvl := level
	if lvl < 0 {
		lvl = 0
	}
	switch u.Kind {
	case wire.ULeave:
		switch {
		case u.Subject == n.id:
			// Reports of our death are exaggerated; our heartbeats and the
			// incarnation bump on any restart correct the record.
		case n.hearsDirectly(u.Subject):
			// We hear the subject ourselves and know better; the paper's
			// per-node independent detection takes precedence locally.
		default:
			n.dir.Remove(u.Subject, now)
		}
	case wire.UDepart:
		// Authoritative: the subject announced its own departure, so it is
		// removed even while its last heartbeats are still fresh.
		if u.Subject != n.id {
			n.dir.Remove(u.Subject, now)
			for _, lv := range n.levels {
				if m := lv.member(u.Subject); m != nil {
					lv.drop(m)
				}
			}
		}
	case wire.UJoin, wire.UChange:
		if u.Subject < 0 || u.Info.Node != u.Subject {
			// Internally inconsistent update: the carried info does not
			// describe the subject. Count it and refuse to relay it.
			n.stats.PacketsRejected++
			n.ep.NoteReject()
			return
		}
		if u.Subject != n.id {
			n.dir.Upsert(u.Info, membership.OriginRelayed, lvl, relayer, now)
		}
	default:
		return // unknown kind: do not relay garbage
	}
	// Relay into every other group we participate in. Dedup by UID makes
	// the flood loop-free; idempotent application makes duplicates
	// harmless (§3.1.1).
	if n.joinedChannels() > 1 {
		n.stats.UpdatesRelayed++
		n.emitUpdate(u, level)
	}
}

// hearsDirectly reports whether we have recently heard the node's own
// heartbeats on any joined channel.
func (n *Node) hearsDirectly(id membership.NodeID) bool {
	now := n.eng.Now()
	for _, lv := range n.levels {
		if !lv.joined {
			continue
		}
		if ms := lv.member(id); ms != nil && now-ms.lastHeard <= n.cfg.DeadAfterLevel(lv.level) {
			return true
		}
	}
	return false
}

func (n *Node) joinedChannels() int {
	c := 0
	for _, lv := range n.levels {
		if lv.joined {
			c++
		}
	}
	return c
}

// markSeen records an update ID with FIFO eviction. Re-marking a present ID
// does not refresh its eviction order.
func (n *Node) markSeen(id wire.UpdateID) {
	if n.seen == nil {
		n.seen = new(seenSet)
	}
	if n.seen.has(id) {
		return
	}
	n.seen.add(id)
}

// seenSet is an exact bounded set of update IDs with FIFO eviction — the
// same answers as a map[wire.UpdateID]bool plus an eviction queue of maxSeen
// IDs — stored by counter runs. A node's IDs come from few origins whose
// counters mostly arrive in order, so each origin keeps its live counters as
// runs (stretches of consecutive insertions with consecutive counters) in
// insertion order, and the eviction order is a ring of 2-byte origin slots:
// the oldest ID is the front of the front run of the origin in ring[oldest].
// An origin's slot is found through the origin table, the per-peer storage
// every daemon keys by node (DESIGN.md, "Per-peer state"), which holds slot+1
// for each live origin: a lookup is two array loads. A full set over 50
// origins with in-order counters is 8 KiB of ring plus a run per origin and
// the table's pointer array (2 KiB for origins up to 1000), where a hash
// table with one slot per ID needs 64 KiB. Allocated lazily so idle nodes
// cost nothing; the ring grows by doubling up to maxSeen. What has/add
// answer, and the eviction order, depend only on the maxSeen bound.
type seenSet struct {
	ring    []uint16                 // origin slot of every live ID, in insertion order
	oldest  int                      // ring index of the oldest ID once len(ring) == maxSeen
	origins []seenOrigin             // by slot; a slot whose last ID is evicted goes on free
	free    []uint16                 // recycled slots
	slots   membership.Table[uint16] // slot+1 of every live origin; 0 for none
}

// seenOrigin holds one origin's live counters: runs[head:], oldest first.
type seenOrigin struct {
	id   membership.NodeID
	head int32
	runs []seenRun
}

// seenRun is the counters start, start+1, …, start+n-1 (mod 2³²).
type seenRun struct{ start, n uint32 }

func (s *seenSet) has(id wire.UpdateID) bool {
	if s == nil {
		return false
	}
	p := s.slots.Get(id.Origin)
	if p == nil || *p == 0 {
		return false
	}
	o := &s.origins[*p-1]
	for k := len(o.runs) - 1; k >= int(o.head); k-- {
		if r := o.runs[k]; id.Counter-r.start < r.n {
			return true
		}
	}
	return false
}

// add inserts an ID known to be absent, evicting the oldest ID when full.
func (s *seenSet) add(id wire.UpdateID) {
	full := len(s.ring) == maxSeen
	if full {
		s.evict()
	}
	p := s.slots.Ensure(id.Origin)
	if *p == 0 {
		*p = s.adopt(id.Origin) + 1
	}
	slot := *p - 1
	o := &s.origins[slot]
	if k := len(o.runs) - 1; k >= int(o.head) && o.runs[k].start+o.runs[k].n == id.Counter {
		o.runs[k].n++
	} else {
		o.push(seenRun{start: id.Counter, n: 1})
	}
	if full {
		s.ring[s.oldest] = slot
		s.oldest = (s.oldest + 1) % maxSeen
		return
	}
	if len(s.ring) == cap(s.ring) {
		// Double by hand: append's own growth may overshoot maxSeen.
		s.ring = append(make([]uint16, 0, min(maxSeen, max(32, 2*len(s.ring)))), s.ring...)
	}
	s.ring = append(s.ring, slot)
}

// evict drops the oldest ID: the front counter of its origin's front run.
// An origin left without IDs leaves the table and its slot is recycled.
func (s *seenSet) evict() {
	slot := s.ring[s.oldest]
	o := &s.origins[slot]
	r := &o.runs[o.head]
	r.start++
	if r.n--; r.n > 0 {
		return
	}
	if o.head++; int(o.head) < len(o.runs) {
		return
	}
	o.runs, o.head = o.runs[:0], 0
	s.slots.Delete(o.id, liveSlot)
	s.free = append(s.free, slot)
}

func liveSlot(p *uint16) bool { return *p != 0 }

// adopt gives a new origin a slot, a recycled one if any.
func (s *seenSet) adopt(origin membership.NodeID) uint16 {
	var slot uint16
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = uint16(len(s.origins))
		s.origins = append(s.origins, seenOrigin{})
	}
	s.origins[slot].id = origin
	return slot
}

// push appends a run, first sliding the live runs down over the evicted
// ones when that frees at least half the capacity, so a fragmented origin
// in steady state reuses its array.
func (o *seenOrigin) push(r seenRun) {
	if len(o.runs) == cap(o.runs) && o.head > 0 && 2*int(o.head) >= len(o.runs) {
		o.runs = o.runs[:copy(o.runs, o.runs[o.head:])]
		o.head = 0
	}
	o.runs = append(o.runs, r)
}
