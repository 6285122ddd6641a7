package wire

import (
	"encoding/binary"

	"repro/internal/membership"
)

// ---- member records read in place (docs/WIRE.md §§3-4) ----
//
// Three packets carry a counted run of member records: a directory snapshot,
// a gossip view (each record behind its 8-byte counter) and a rapid view's
// carried records. Decode builds none of them. It validates the run in one
// skipInfo walk and keeps it as an InfoList over the payload; the receiver
// walks it with an InfoCursor, judges each record on its 24-byte prefix, and
// decodes in full only the records it keeps.

// InfoPrefixLen is the size of the fixed head of an encoded MemberInfo:
// node (4), incarnation (4), version (8), beat (8).
const InfoPrefixLen = 24

// skipInfo advances r over one encoded MemberInfo, failing exactly where
// reading it through codec.info would, without building anything.
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

// InfoList is a counted run of encoded member records. A decoded list is a
// view of the payload it arrived in, validated to its last byte, and must
// not be written (see DirectoryView for who else may be reading it); a
// sender fills one with Append. The zero value is the empty list.
type InfoList struct {
	n int
	b []byte // the n records, each behind the lead its packet kind gives it
}

// Append encodes m onto the end of the list.
func (l *InfoList) Append(m membership.MemberInfo) {
	c := codec{reader: reader{buf: l.b}}
	c.info(&m)
	l.b = c.buf
	l.n++
}

// Reset empties a list a sender fills, keeping its buffer for the next
// Appends.
func (l *InfoList) Reset() { l.n, l.b = 0, l.b[:0] }

// Cursor returns a cursor positioned before the first record. Cursors are
// values private to their holder; any number may walk one shared list.
func (l InfoList) Cursor() InfoCursor { return l.cursor(0) }

func (l InfoList) cursor(lead int) InfoCursor { return InfoCursor{rest: l.b, left: l.n, lead: lead} }

// infos moves a counted run of member records, each behind lead bytes.
// Reading validates the run in one decInfoList walk and keeps it in place.
func (c *codec) infos(l *InfoList, lead int) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(l.n))
		c.buf = append(c.buf, l.b...)
	case reading:
		*l = decInfoList(&c.reader, lead)
	}
}

// records writes the live entries of dir in node order as the run
// of member records infos reads back with the same lead: a gossip view's lead
// is each entry's beat, as its u64 counter. It is how a node publishes its
// own directory without building the records first.
func (c *codec) records(dir *membership.Directory, lead int) {
	n := dir.Len()
	c.count(&n)
	dir.Range(func(_ membership.NodeID, e *membership.Entry) {
		if lead == gossipLead {
			c.u64(&e.Beat)
		}
		services, attrs := dir.Content(e)
		c.prefix(&e.Node, &e.Incarnation, &e.Version, &e.Beat)
		c.content(&services, &attrs)
	})
}

// decInfoList reads a count and walks that many records, each preceded by
// lead bytes it steps over. Any error leaves the list empty: a run of records
// is applied whole or not at all.
func decInfoList(r *reader, lead int) InfoList {
	n := r.sliceLen()
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		r.take(lead)
		skipInfo(r)
	}
	if r.err != nil || n == 0 {
		return InfoList{}
	}
	return InfoList{n: n, b: r.buf[start:r.off:r.off]}
}

// InfoCursor walks the records of an InfoList in wire order; it is the
// membership.RelayedSource a directory merges a snapshot or a gossip view
// from.
type InfoCursor struct {
	cur  []byte // the current record, past its lead
	rest []byte // the records after it
	left int
	lead int // bytes in front of every record that the walk steps over
}

// Next advances to the following record and reports whether there is one.
func (c *InfoCursor) Next() bool {
	if c.left == 0 {
		return false
	}
	c.left--
	r := reader{buf: c.rest, off: c.lead}
	skipInfo(&r)
	c.cur, c.rest = c.rest[c.lead:r.off], c.rest[r.off:]
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
	var m membership.MemberInfo
	dec := codec{reader: reader{buf: c.cur}, dir: reading}
	dec.info(&m)
	return m
}
