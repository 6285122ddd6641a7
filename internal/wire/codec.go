package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The byte-level layout of the packet header, the primitives below, and
// every message body is specified in docs/WIRE.md; keep the two in sync
// (any body layout change must bump Version, per the spec's evolution
// rules). Each body's layout is stated once, as its body method, over a
// codec: the same statements write a packet and read one.

// Version is the wire format version carried in every packet header.
// Version 2 added the body checksum to the header: without an integrity
// check, a bit-flipped heartbeat could forge a higher liveness beat or
// incarnation and violate the monotone-sequence safety invariant. Version 3
// stopped writing the zero run after a padded body's pad field: the pad is a
// declared length (Padding), accounted for by the network, not carried.
const Version = 3

// Magic identifies TAMP packets.
const Magic = 0x544D // "TM"

// HeaderLen is the fixed packet header size: magic (2) + version (1) +
// type (1) + body CRC (4).
const HeaderLen = 8

// crcTable is the Castagnoli polynomial table used for the header's body
// checksum (hardware-accelerated on common platforms).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTruncated is returned when a packet ends before its declared content.
var ErrTruncated = errors.New("wire: truncated packet")

// ErrTrailing is returned when decodable content is followed by junk.
var ErrTrailing = errors.New("wire: trailing bytes")

// ErrChecksum is returned when the body fails the header's CRC — the
// datagram was damaged in flight and nothing in it can be trusted.
var ErrChecksum = errors.New("wire: body checksum mismatch")

// maxSliceLen bounds decoded slice lengths as a defence against corrupt or
// hostile length prefixes.
const maxSliceLen = 1 << 20

// reader is a sticky-error decoder. A failure also moves off to the end of
// the packet, so every later read fails its bounds check and yields zero:
// the first error stays the only one, and a fixed-width read is one compare.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.buf)
}

func (r *reader) take(n int) []byte {
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	if r.off+1 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += 2
	return binary.LittleEndian.Uint16(r.buf[r.off-2:])
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.buf[r.off-4:])
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.buf[r.off-8:])
}

func (r *reader) bool() bool {
	b := r.u8()
	if b > 1 {
		r.fail(errors.New("wire: invalid bool"))
	}
	return b == 1
}

// str reads a string field, handing prev back when the bytes on the wire
// spell the same string: a resident decode target that sees the same service
// name on every request makes the string once. A fresh target's prev is "".
func (r *reader) str(prev string) string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// view reads a length-prefixed byte field as a view of the packet: the
// input's own bytes with the capacity clipped to the field, so an append on
// the result copies out instead of writing over what follows it in the
// packet. An empty field is nil. docs/WIRE.md §4 states the contract (packets
// are immutable once sent; a view lives as long as its packet).
func (r *reader) view() []byte {
	n := r.sliceLen()
	b := r.take(n)
	if len(b) == 0 {
		return nil
	}
	return b[:n:n]
}

// sliceLen reads and bounds a slice length prefix.
func (r *reader) sliceLen() int {
	n := int(r.u32())
	if n > maxSliceLen {
		r.fail(fmt.Errorf("wire: slice length %d exceeds limit", n))
		return 0
	}
	// A non-empty slice needs at least one byte per element; cheap sanity
	// bound against hostile prefixes.
	if r.err == nil && n > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return 0
	}
	return n
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrTrailing
	}
	return nil
}

// direction is what a codec does with the fields a layout hands it.
type direction uint8

const (
	writing direction = iota // append each field to buf
	reading                  // parse each field from buf into its target
)

// codec moves a body's fields, one primitive per field, in the direction it
// was made for. A layout is written once against it: the same statements
// encode a message and decode one. The embedded reader is the reading
// direction's state, and writing appends to its buf, which keeps a codec to
// seven words — small enough to pass in registers through the by-value
// Message.body call.
type codec struct {
	reader
	dir direction
}

// checking reports whether c is reading a body that is well formed so far:
// where a read-side range check applies.
func (c *codec) checking() bool { return c.dir == reading && c.err == nil }

func (c *codec) u8(v *uint8) {
	switch c.dir {
	case writing:
		c.buf = append(c.buf, *v)
	case reading:
		*v = c.reader.u8()
	}
}

func (c *codec) u16(v *uint16) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	case reading:
		*v = c.reader.u16()
	}
}

func (c *codec) u32(v *uint32) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	case reading:
		*v = c.reader.u32()
	}
}

func (c *codec) u64(v *uint64) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	case reading:
		*v = c.reader.u64()
	}
}

func (c *codec) i32(v *int32) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	case reading:
		*v = int32(c.reader.u32())
	}
}

// bool is strict on the read side: any byte but 0 or 1 fails the packet.
func (c *codec) bool(v *bool) {
	switch c.dir {
	case writing:
		if *v {
			c.buf = append(c.buf, 1)
		} else {
			c.buf = append(c.buf, 0)
		}
	case reading:
		*v = c.reader.bool()
	}
}

// str writes a string clipped to 65535 bytes, and reads one reusing the
// target's previous value when it is equal (reader.str).
func (c *codec) str(v *string) {
	switch c.dir {
	case writing:
		s := (*v)[:min(len(*v), math.MaxUint16)]
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(len(s)))
		c.buf = append(c.buf, s...)
	case reading:
		*v = c.reader.str(*v)
	}
}

// bytes moves a length-prefixed byte field; a read one is a clipped view of
// the packet (reader.view).
func (c *codec) bytes(v *[]byte) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*v)))
		c.buf = append(c.buf, *v...)
	case reading:
		*v = c.view()
	}
}

// count moves a slice length prefix, bounded by sliceLen when read.
func (c *codec) count(n *int) {
	switch c.dir {
	case writing:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*n))
	case reading:
		*n = c.sliceLen()
	}
}

// list moves the count of a slice and returns the slice for the caller to
// move element by element. Reading, it first replaces *s with a fresh slice
// of the count's length — nil when the count is zero — whose elements the
// caller's walk fills in.
func list[T any](c *codec, s *[]T) []T {
	n := len(*s)
	c.count(&n)
	if c.dir == reading {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return *s
}

// reuse is list for a slice its target owns outright: reading, it keeps *s's
// array when it has room for the count and zeroes every element the walk will
// fill, so nothing of the previous decode survives a field the new one leaves
// unset; otherwise it makes a fresh slice, as list does. A zero count reads as
// nil, as list's does.
func reuse[T any](c *codec, s *[]T) []T {
	n := len(*s)
	c.count(&n)
	if c.dir == reading {
		switch {
		case n == 0:
			*s = nil
		case n <= cap(*s):
			*s = (*s)[:n]
			clear(*s)
		default:
			*s = make([]T, n)
		}
	}
	return *s
}
