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
	n.emitUpdate(u, exceptLevel)
}

// emitUpdate appends one update to our outgoing stream and multicasts it —
// piggybacking the previous PiggybackDepth updates — on every channel we
// have joined except exceptLevel. Only leaders are joined to more than one
// channel, so this realizes the paper's relay pattern: updates travel up to
// the parent group and down into every group the receiving members lead.
func (n *Node) emitUpdate(u wire.Update, exceptLevel int) {
	// recent is newest-first; shift in place instead of re-allocating the
	// prepend on every originated update.
	if max := n.cfg.PiggybackDepth + 1; len(n.recent) < max {
		n.recent = append(n.recent, wire.Update{})
	}
	copy(n.recent[1:], n.recent)
	n.recent[0] = u
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
		msg := &wire.UpdateMsg{Sender: n.id, Seq: n.outSeq[lv.level], Updates: n.recent}
		n.ep.Multicast(n.channelOf(lv.level), ttl(lv.level), n.enc.AppendEncode(nil, msg))
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
			n.ep.Unicast(topoHost(m.Sender), wire.Encode(&wire.SyncRequest{From: n.id}))
		}
	}
	// Apply oldest-first so causality within the stream is preserved.
	for i := len(m.Updates) - 1; i >= 0; i-- {
		n.applyUpdate(m.Updates[i], level, m.Sender)
	}
}

// applyUpdate applies one membership change if unseen and relays it.
func (n *Node) applyUpdate(u wire.Update, level int, relayer membership.NodeID) {
	if n.seen.has(u.ID) {
		n.stats.DuplicateUpdates++
		return
	}
	n.markSeen(u.ID)
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
// same semantics as a map[wire.UpdateID]bool plus an eviction queue, but the
// membership test runs for every piggybacked update on every delivery, so it
// must not pay generic map-hashing costs. Entries live in an insertion ring;
// per-bucket chains of ring indices make lookups O(1). Allocated lazily so
// idle nodes cost nothing, and grown by doubling from minSeen up to maxSeen:
// a node of a small or short-lived cluster sees a few dozen IDs and should
// not pay for 4096. What has/add answer, and the eviction order, do not
// depend on the table's size — only on the maxSeen bound.
type seenSet struct {
	count  int             // live entries, ≤ len(ring)
	oldest int             // ring index of the oldest entry once full at maxSeen
	ring   []wire.UpdateID // entries in insertion order
	bucket []int32         // 1-based chain heads into ring; 0 = empty
	link   []int32         // 1-based chain successors; 0 = end
}

// minSeen is the table's first capacity; like maxSeen, a power of two.
const minSeen = 64

// bucketOf hashes id into a table of len(s.bucket) (a power of two) buckets.
func (s *seenSet) bucketOf(id wire.UpdateID) uint32 {
	h := uint64(uint32(id.Origin))<<32 | uint64(id.Counter)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd // 64-bit finalizer-style mix
	h ^= h >> 33
	return uint32(h) & uint32(len(s.bucket)-1)
}

func (s *seenSet) has(id wire.UpdateID) bool {
	if s == nil || s.count == 0 {
		return false
	}
	for i := s.bucket[s.bucketOf(id)]; i != 0; i = s.link[i-1] {
		if s.ring[i-1] == id {
			return true
		}
	}
	return false
}

// add inserts an ID known to be absent, evicting the oldest entry when full.
func (s *seenSet) add(id wire.UpdateID) {
	if s.count == len(s.ring) && s.count < maxSeen {
		s.grow()
	}
	slot := int32(s.count)
	if s.count == maxSeen {
		slot = int32(s.oldest)
		s.unlink(s.ring[slot])
		s.oldest = (s.oldest + 1) % maxSeen
	} else {
		s.count++
	}
	s.ring[slot] = id
	s.chain(slot)
}

// chain links ring slot into its bucket's chain.
func (s *seenSet) chain(slot int32) {
	b := s.bucketOf(s.ring[slot])
	s.link[slot] = s.bucket[b]
	s.bucket[b] = slot + 1
}

// grow doubles the table. The ring has not wrapped yet (eviction starts at
// maxSeen), so the entries keep their slots and only the chains are rebuilt.
func (s *seenSet) grow() {
	size := max(minSeen, 2*len(s.ring))
	s.ring = append(make([]wire.UpdateID, 0, size), s.ring...)[:size]
	s.bucket = make([]int32, size)
	s.link = make([]int32, size)
	for slot := 0; slot < s.count; slot++ {
		s.chain(int32(slot))
	}
}

func (s *seenSet) unlink(id wire.UpdateID) {
	p := &s.bucket[s.bucketOf(id)]
	for *p != 0 {
		i := *p - 1
		if s.ring[i] == id {
			*p = s.link[i]
			return
		}
		p = &s.link[i]
	}
}
