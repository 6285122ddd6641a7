package wire

import (
	"repro/internal/membership"
)

// ---- directory snapshots (docs/WIRE.md §4) ----
//
// A TDirectory packet has two faces. Senders that hold their records as a
// slice build a DirectoryMsg; a node publishing its own directory uses
// AppendDirectory, which writes the same bytes straight from the Directory.
// Decode yields neither: it validates the body once and returns a
// DirectoryView over the payload, because a receiver of a 1000-record
// republication needs 24 bytes of each record and the rest of almost none.

// DirectoryMsg is the encode side of a full membership snapshot: the reply
// to a bootstrap or sync request, the leader's unsolicited exchange with a
// newly joined node ("the group leader also asks the new node for the
// membership information that it is aware of"), and the periodic
// republication into a leader's groups.
type DirectoryMsg struct {
	From membership.NodeID
	// Ask requests the receiver to send its own snapshot back (used for
	// the bidirectional bootstrap exchange).
	Ask   bool
	Infos []membership.MemberInfo
}

func (*DirectoryMsg) wireType() Type { return TDirectory }

func (d *DirectoryMsg) body(c codec) codec {
	c.id(&d.From)
	c.bool(&d.Ask)
	for i := range list(&c, &d.Infos) {
		c.info(&d.Infos[i])
	}
	return c
}

// AppendDirectory appends a TDirectory packet carrying every record of dir in
// node order to dst — byte for byte what Encode(&DirectoryMsg{from, ask,
// dir.Snapshot()}) produces — without copying the records first; with a warm
// dst it allocates nothing.
func AppendDirectory(dst []byte, from membership.NodeID, ask bool, dir *membership.Directory) []byte {
	return appendFramed(dst, TDirectory, func(c codec) codec {
		c.id(&from)
		c.bool(&ask)
		c.records(dir, 0)
		return c
	})
}

// DirectoryView is a decoded TDirectory packet: the two header fields plus
// an immutable view of the records, which stay in the payload they arrived
// in. Decode has already walked every record, so a view only exists for a
// body that is well formed to its last byte — a snapshot is applied whole
// or not at all.
//
// The view aliases the payload passed to Decode and is shared, through the
// decode the network keeps with each packet's bytes, by every receiver of
// that packet: neither the view nor those bytes may be written for as long
// as any receiver can still be handed them. Records materialised by
// InfoCursor.Info are copies and outlive the payload.
type DirectoryView struct {
	From membership.NodeID
	Ask  bool

	infos InfoList
}

func (*DirectoryView) wireType() Type { return TDirectory }

func (v *DirectoryView) body(c codec) codec {
	c.id(&v.From)
	c.bool(&v.Ask)
	c.infos(&v.infos, 0)
	return c
}

// Cursor returns a cursor positioned before the first record.
func (v *DirectoryView) Cursor() InfoCursor { return v.infos.Cursor() }
