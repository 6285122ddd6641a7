package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// The byte-level layout of the packet header, the primitives below, and
// every message body is specified in docs/WIRE.md; keep the two in sync
// (any body layout change must bump Version, per the spec's evolution
// rules).

// Version is the wire format version carried in every packet header.
// Version 2 added the body checksum to the header: without an integrity
// check, a bit-flipped heartbeat could forge a higher liveness beat or
// incarnation and violate the monotone-sequence safety invariant.
const Version = 2

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

// writer is an append-only encoder.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// zeros appends n zero bytes in one step: padding runs to hundreds of bytes
// per record, far too many to append one at a time. Grow-then-clear rather
// than append(buf, make([]byte, n)...), which the compiler only turns into
// the same thing when it is not instrumenting: under -race that form
// allocates its temporary, and the warm encode path must not.
func (w *writer) zeros(n int) {
	w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
	clear(w.buf[len(w.buf)-n:])
}

func (w *writer) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// reader is a sticky-error decoder.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i32() int32 { return int32(r.u32()) }
func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("wire: invalid bool"))
		return false
	}
}

func (r *reader) str() string { return r.strReuse("") }

// strReuse reads a string field into a resident decode target: it hands prev
// back when the bytes on the wire spell the same string, so a receiver that
// sees the same service name on every request makes the string once.
func (r *reader) strReuse(prev string) string {
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
