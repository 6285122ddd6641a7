package wire

import (
	"repro/internal/membership"
)

// ---- gossip views (docs/WIRE.md §4) ----
//
// A TGossip packet has the same two faces as a TDirectory one. A sender that
// holds its entries as a slice builds a Gossip; a node gossiping its own
// directory uses EncodeGossip, which writes the same bytes straight from the
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
// appends inert bytes so experiments can equalize the per-member record size
// across schemes (the paper measures 228 bytes per member for all three).
type Gossip struct {
	From    membership.NodeID
	Entries []GossipEntry
	Pad     uint32
}

func (*Gossip) wireType() Type { return TGossip }

func (g *Gossip) enc(w *writer) {
	w.i32(int32(g.From))
	w.u32(uint32(len(g.Entries)))
	for _, e := range g.Entries {
		w.u64(e.Counter)
		encInfo(w, e.Info)
	}
	w.u32(g.Pad)
	w.zeros(int(g.Pad))
}

// gossipLead is what precedes each record of a gossip view: its u64 counter.
const gossipLead = 8

// EncodeGossip frames a TGossip packet carrying every entry of dir in node
// order, each with its stored beat as both the entry counter and the
// record's beat, followed by entryPad inert bytes per entry — byte for byte
// what Encode(&Gossip{…}) produces for those entries — without copying the
// entries first and in one allocation of exactly the packet's size.
func EncodeGossip(from membership.NodeID, dir *membership.Directory, entryPad int) []byte {
	pad := max(entryPad, 0) * dir.Len()
	size := HeaderLen + 4 + 4 + 4 + pad
	dir.Range(func(_ membership.NodeID, e *membership.Entry) {
		size += gossipLead + InfoPrefixLen + contentSize(dir.Content(e))
	})
	w := writer{buf: make([]byte, 0, size)}
	start := w.header(TGossip)
	w.i32(int32(from))
	w.u32(uint32(dir.Len()))
	dir.Range(func(_ membership.NodeID, e *membership.Entry) {
		w.u64(e.Beat)
		services, attrs := dir.Content(e)
		encPrefix(&w, e.InfoPrefix)
		encContent(&w, services, attrs)
	})
	w.u32(uint32(pad))
	w.zeros(pad)
	w.seal(start)
	return w.buf
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
	pad     uint32 // length of the inert tail, kept so the view re-encodes to its packet
}

func (*GossipView) wireType() Type { return TGossip }

func (v *GossipView) enc(w *writer) {
	w.i32(int32(v.From))
	v.entries.enc(w)
	w.u32(v.pad)
	w.zeros(int(v.pad))
}

func decGossipView(r *reader) *GossipView {
	v := &GossipView{From: membership.NodeID(r.i32()), entries: decInfoList(r, gossipLead)}
	v.pad = r.u32()
	r.take(int(v.pad))
	return v
}

// Cursor returns a cursor positioned before the first entry. The cursor's
// records are the entries' member records; each entry's counter is the beat
// of its record (EncodeGossip writes the one value in both places, and the
// merge reads the record's).
func (v *GossipView) Cursor() InfoCursor { return v.entries.cursor(gossipLead) }
