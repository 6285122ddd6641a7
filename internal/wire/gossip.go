package wire

import (
	"repro/internal/membership"
)

// ---- gossip views (docs/WIRE.md §4) ----
//
// A TGossip packet has the same two faces as a TDirectory one. A sender that
// holds its entries as a slice builds a Gossip; a node gossiping its own
// directory uses AppendGossip, which writes the same bytes straight from the
// Directory. Decode validates the body once and returns a GossipView over
// the payload: the receiver of a 400-entry view needs 24 bytes of each
// record and, in steady state, the rest of none.

// GossipEntry pairs a member's info with its heartbeat counter.
type GossipEntry struct {
	Counter uint64
	Info    membership.MemberInfo
}

// Gossip is the encode side of the gossip baseline's message: the sender's
// entire local view with per-member heartbeat counters (van Renesse et al.),
// which is why the gossip scheme's message size grows with cluster size. Pad
// declares an uncarried tail (Padding) so experiments can equalize the
// per-member record size across schemes (the paper measures 228 bytes per
// member for all three).
type Gossip struct {
	From    membership.NodeID
	Entries []GossipEntry
	Pad     uint32
}

func (*Gossip) wireType() Type { return TGossip }

func (g *Gossip) body(c codec) codec {
	c.id(&g.From)
	for i := range list(&c, &g.Entries) {
		c.u64(&g.Entries[i].Counter)
		c.info(&g.Entries[i].Info)
	}
	c.u32(&g.Pad)
	return c
}

// gossipLead is what precedes each record of a gossip view: its u64 counter.
const gossipLead = 8

// AppendGossip appends a TGossip packet carrying every entry of dir in node
// order to dst, each with its stored beat as both the entry counter and the
// record's beat, declaring entryPad inert bytes per entry — byte for byte
// what Encode(&Gossip{…}) produces for those entries — without copying the
// entries first; with a warm dst it allocates nothing.
func AppendGossip(dst []byte, from membership.NodeID, dir *membership.Directory, entryPad int) []byte {
	pad := uint32(max(entryPad, 0) * dir.Len())
	return appendFramed(dst, TGossip, func(c codec) codec {
		c.id(&from)
		c.records(dir, gossipLead)
		c.u32(&pad)
		return c
	})
}

// GossipView is a decoded TGossip packet: the sender plus an immutable view
// of its entries, which stay in the payload they arrived in. Decode has
// already walked every record, so a view only exists for a body that is well
// formed to its last byte — a view is merged whole or not at all. A gossip
// round is a unicast, so no other receiver shares the view; like every
// packet, the bytes under it are never written. Records materialised by
// InfoCursor.Info are copies and outlive the payload.
type GossipView struct {
	From membership.NodeID

	entries InfoList
	pad     uint32 // the declared tail, kept so the view re-encodes to its packet
}

func (*GossipView) wireType() Type { return TGossip }

func (v *GossipView) body(c codec) codec {
	c.id(&v.From)
	c.infos(&v.entries, gossipLead)
	c.u32(&v.pad)
	return c
}

// Cursor returns a cursor positioned before the first entry. The cursor's
// records are the entries' member records; each entry's counter is the beat
// of its record (AppendGossip writes the one value in both places, and the
// merge reads the record's).
func (v *GossipView) Cursor() InfoCursor { return v.entries.cursor(gossipLead) }
