package core

import (
	"repro/internal/membership"
	"repro/internal/topology"
	"repro/internal/wire"
)

// topoHost converts a protocol node ID to the transport host ID; they are
// the same identity by construction (the paper uses the IP address for
// both).
func topoHost(id membership.NodeID) topology.HostID { return topology.HostID(id) }

// bootstrap runs the Bootstrap Protocol for one level: having listened to
// the channel for a heartbeat period, find the member whose heartbeats
// carry the leader flag and pull its directory. Retries every heartbeat
// interval until a leader is found or we become one ourselves.
func (n *Node) bootstrap(level int) {
	if !n.running {
		return
	}
	lv := n.levels[level]
	if !lv.joined || lv.bootstrapped || lv.isLeader {
		return
	}
	if leader := lv.visibleLeader(); leader != membership.NoNode {
		lv.bootstrapFrom = leader
		n.ep.Unicast(topoHost(leader), n.frame(&wire.BootstrapRequest{From: n.id, Level: uint8(level)}))
	}
	// Retry until a directory reply lands (the request or reply may be
	// lost, or no leader may be elected yet).
	n.eng.Schedule(2*n.cfg.HeartbeatInterval, func() { n.bootstrap(level) })
}

// onBootstrapRequest serves a joining node: reply with our full directory
// and ask for the joiner's in return ("the group leader also asks the new
// node for the membership information that it is aware of in case that the
// new node is also a group leader from a lower level group").
func (n *Node) onBootstrapRequest(m *wire.BootstrapRequest) {
	n.stats.BootstrapsServed++
	n.withDirectory(true, func(b []byte) { n.ep.Unicast(topoHost(m.From), b) })
}

// onSyncRequest serves a full directory to a peer that detected an
// unrecoverable update loss.
func (n *Node) onSyncRequest(m *wire.SyncRequest) {
	n.withDirectory(false, func(b []byte) { n.ep.Unicast(topoHost(m.From), b) })
}

// onDirectoryMsg merges a full snapshot (bootstrap reply, sync reply, or a
// leader's in-group publication) in place from the packet's bytes. level is
// the channel it arrived on, or -1 for unicast.
func (n *Node) onDirectoryMsg(level int, m *wire.DirectoryView) {
	if m.From == n.id {
		return
	}
	if level < 0 {
		// A unicast directory reply completes any bootstrap pending on
		// this sender.
		for _, lv := range n.levels {
			if lv.joined && !lv.bootstrapped && lv.bootstrapFrom == m.From {
				lv.bootstrapped = true
			}
		}
	}
	lvl := level
	if lvl < 0 {
		lvl = 0
	}
	// The cursor and the lists live in the node so that handing the cursor to
	// the directory as an interface, and collecting what the merge reports,
	// allocate nothing per snapshot. Joins are only acted on by a leader
	// (below), so only a leader collects them.
	leader := n.anyLeader()
	var joined *[]membership.MemberInfo
	if leader {
		joined = &n.joined
	}
	n.dirCursor = m.Cursor()
	n.joined, n.tombstoned = n.joined[:0], n.tombstoned[:0]
	invalid := n.dir.MergeRelayed(&n.dirCursor, lvl, m.From, n.eng.Now(), joined, &n.tombstoned)
	n.dirCursor = wire.InfoCursor{} // do not pin the payload
	for ; invalid > 0; invalid-- {
		// An impossible identity cannot be a member; dropping the entry
		// (rather than the whole snapshot) keeps the merge useful.
		n.stats.PacketsRejected++
		n.ep.NoteReject()
	}
	if len(n.tombstoned) > 0 {
		// The publisher still believes in nodes we removed; send targeted
		// corrections so its stale entries do not linger.
		corrections := make([]wire.Update, len(n.tombstoned))
		for i, id := range n.tombstoned {
			n.updCounter++
			corrections[i] = wire.Update{
				ID:      wire.UpdateID{Origin: n.id, Counter: n.updCounter},
				Kind:    wire.ULeave,
				Subject: id,
			}
		}
		// Seq 0 keeps these out-of-band corrections out of the sender's
		// loss-detected update stream; receivers apply them by UID.
		n.ep.Unicast(topoHost(m.From), n.frame(&wire.UpdateMsg{
			Sender: n.id, Seq: 0, Updates: corrections,
		}))
	}
	// If we lead any group, propagate what we just learned: this is how a
	// joining leader's whole subtree becomes known cluster-wide ("the
	// result is then propagated to all group members using the update
	// protocol").
	if leader {
		for _, info := range n.joined {
			n.originateUpdate(wire.UJoin, info.Node, info, -1)
		}
		clear(n.joined) // do not pin the records' content
	}
	if m.Ask {
		n.withDirectory(false, func(b []byte) { n.ep.Unicast(topoHost(m.From), b) })
	}
}
