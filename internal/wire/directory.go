package wire

import (
	"encoding/binary"
	"math"

	"repro/internal/membership"
)

// ---- directory snapshots (docs/WIRE.md §4) ----
//
// A TDirectory packet has two faces. Senders that hold their records as a
// slice build a DirectoryMsg; a node publishing its own directory uses
// EncodeDirectory, which writes the same bytes straight from the Directory.
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

func (d *DirectoryMsg) enc(w *writer) {
	w.i32(int32(d.From))
	w.bool(d.Ask)
	encInfos(w, d.Infos)
}

// EncodeDirectory frames a TDirectory packet carrying every record of dir in
// node order — byte for byte what Encode(&DirectoryMsg{from, ask,
// dir.Snapshot()}) produces — without copying the records first and in one
// allocation of exactly the packet's size.
func EncodeDirectory(from membership.NodeID, ask bool, dir *membership.Directory) []byte {
	size := HeaderLen + 4 + 1 + 4
	dir.Range(func(_ membership.NodeID, e *membership.Entry) { size += infoSize(&e.Info) })
	w := writer{buf: make([]byte, 0, size)}
	start := w.header(TDirectory)
	w.i32(int32(from))
	w.bool(ask)
	w.u32(uint32(dir.Len()))
	dir.Range(func(_ membership.NodeID, e *membership.Entry) { encInfo(&w, e.Info) })
	w.seal(start)
	return w.buf
}

// InfoPrefixLen is the size of the fixed head of an encoded MemberInfo:
// node (4), incarnation (4), version (8), beat (8).
const InfoPrefixLen = 24

// infoSize is the number of bytes encInfo appends for m.
func infoSize(m *membership.MemberInfo) int {
	n := InfoPrefixLen + 4 + kvsSize(m.Attrs)
	for i := range m.Services {
		s := &m.Services[i]
		n += strSize(s.Name) + 4 + 4*len(s.Partitions) + kvsSize(s.Params)
	}
	return n
}

func kvsSize(kvs []membership.KV) int {
	n := 4
	for _, kv := range kvs {
		n += strSize(kv.Key) + strSize(kv.Value)
	}
	return n
}

func strSize(s string) int { return 2 + min(len(s), math.MaxUint16) }

// skipInfo advances r over one encoded MemberInfo, failing exactly where
// decInfo would, without building anything.
func skipInfo(r *reader) {
	// A record with no services and no attributes ends in two zero counts;
	// spotting them as one word keeps the walk over a snapshot of such
	// records (a cluster that publishes liveness only) to a load and a
	// compare per record.
	if b := r.buf[r.off:]; r.err == nil && len(b) >= InfoPrefixLen+8 && binary.LittleEndian.Uint64(b[InfoPrefixLen:]) == 0 {
		r.off += InfoPrefixLen + 8
		return
	}
	r.take(InfoPrefixLen)
	for ns := r.sliceLen(); ns > 0 && r.err == nil; ns-- {
		r.take(int(r.u16()))
		r.take(4 * r.sliceLen())
		skipKVs(r)
	}
	skipKVs(r)
}

func skipKVs(r *reader) {
	for n := r.sliceLen(); n > 0 && r.err == nil; n-- {
		r.take(int(r.u16()))
		r.take(int(r.u16()))
	}
}

// DirectoryView is a decoded TDirectory packet: the two header fields plus
// an immutable view of the records, which stay in the payload they arrived
// in. Decode has already walked every record, so a view only exists for a
// body that is well formed to its last byte — a snapshot is applied whole
// or not at all.
//
// The view aliases the payload passed to Decode and is shared, through the
// network's per-packet decode memo, by every receiver of that packet:
// neither the view nor those bytes may be written for as long as any
// receiver can still be handed them. Records materialised by
// InfoCursor.Info are copies and outlive the payload.
type DirectoryView struct {
	From membership.NodeID
	Ask  bool

	n     int
	infos []byte // the n encoded records, validated
}

func (*DirectoryView) wireType() Type { return TDirectory }

func (v *DirectoryView) enc(w *writer) {
	w.i32(int32(v.From))
	w.bool(v.Ask)
	w.u32(uint32(v.n))
	w.buf = append(w.buf, v.infos...)
}

func decDirectoryView(r *reader) *DirectoryView {
	v := &DirectoryView{From: membership.NodeID(r.i32()), Ask: r.bool()}
	v.n = r.sliceLen()
	start := r.off
	for i := 0; i < v.n && r.err == nil; i++ {
		skipInfo(r)
	}
	if r.err == nil {
		v.infos = r.buf[start:r.off]
	}
	return v
}

// Cursor returns a cursor positioned before the first record. Cursors are
// values private to their holder; any number may walk one shared view.
func (v *DirectoryView) Cursor() InfoCursor { return InfoCursor{rest: v.infos, left: v.n} }

// InfoCursor walks the records of a DirectoryView in wire order; it is the
// membership.RelayedSource a directory merges a snapshot from.
type InfoCursor struct {
	cur  []byte // the current record
	rest []byte // the records after it
	left int
}

// Next advances to the following record and reports whether there is one.
func (c *InfoCursor) Next() bool {
	if c.left == 0 {
		return false
	}
	c.left--
	r := reader{buf: c.rest}
	skipInfo(&r)
	c.cur, c.rest = c.rest[:r.off], c.rest[r.off:]
	return true
}

// Prefix reads the current record's fixed head in place.
func (c *InfoCursor) Prefix() membership.InfoPrefix {
	b := c.cur[:InfoPrefixLen]
	return membership.InfoPrefix{
		Node:        membership.NodeID(binary.LittleEndian.Uint32(b)),
		Incarnation: binary.LittleEndian.Uint32(b[4:]),
		Version:     binary.LittleEndian.Uint64(b[8:]),
		Beat:        binary.LittleEndian.Uint64(b[16:]),
	}
}

// Info decodes the current record in full. The result shares nothing with
// the payload.
func (c *InfoCursor) Info() membership.MemberInfo {
	r := reader{buf: c.cur}
	return decInfo(&r)
}
