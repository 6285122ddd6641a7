// Package wire defines the versioned binary encoding of every packet the
// membership protocols exchange (#4 in DESIGN.md's system inventory):
// heartbeats, membership updates, bootstrap and synchronization transfers,
// gossip digests, proxy summaries, load-balancing polls and reports, the
// service-invocation envelope, and the directory IPC of §5.
//
// The format is hand-rolled over encoding/binary (no gob/json) so packet
// sizes are deterministic and comparable with the paper's measured
// 228-byte membership heartbeats. All integers are little-endian; strings
// and slices carry uint16/uint32 length prefixes. Decoding is strict:
// trailing bytes, truncation, or an unknown version yield an error, never
// a panic, and hostile length prefixes are bounded before allocation.
//
// The byte-level layout of the header and of every message, along with the
// version-evolution rules, is specified in docs/WIRE.md; codec.go holds
// the encoder/decoder primitives and messages.go the per-message
// encodings, in the same order as the spec.
//
// Key API:
//
//   - Message: implemented by every packet body (Heartbeat, UpdateMsg,
//     DirectoryMsg, Gossip, ProxySummary, ServiceRequest, ...).
//   - Encode(m): serialize with the 8-byte packet header (magic, version,
//     type, body CRC) into a fresh buffer of a guessed 256 bytes. It is the
//     convenience form: its non-test callers are the bootstrap and sync
//     exchanges of core, the directory IPC of dirserver, and figure code.
//     Every per-beat and per-request sender keeps an Encoder and calls
//     AppendEncode into a buffer sized for the packet by a remembered hint,
//     or EncodeSized for the request-path kinds, which know their exact
//     EncodedLen.
//   - Decode(b): strict parse, returning one of the concrete message
//     types or an error (ErrTruncated, ErrTrailing, bad magic/version).
//   - RequestDecoder: the resident receive path of ServiceRequest,
//     ServiceReply, LoadPoll and LoadReply. Same frame check and body
//     parsers as Decode, into targets the decoder owns; the byte payload of
//     a request or reply is a clipped view of the packet on both paths
//     (docs/WIRE.md §4 states the aliasing contract).
//   - DirectoryView, InfoCursor, EncodeDirectory: the snapshot path. A
//     TDirectory packet is the one body Decode does not build: it is
//     validated in a single walk and returned as an immutable view over
//     the payload, whose cursor reads each record's 24-byte prefix in
//     place and decodes the rest only on request; EncodeDirectory is the
//     matching sender, writing a membership.Directory into one buffer of
//     exactly the packet's size. docs/WIRE.md §4 states the view's
//     immutability and lifetime contract.
//   - Type: the packet-type tag carried in the header.
package wire
