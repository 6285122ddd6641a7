// Package wire defines the versioned binary encoding of every packet the
// membership protocols exchange (#4 in DESIGN.md's system inventory):
// heartbeats, membership updates, bootstrap and synchronization transfers,
// gossip digests, proxy summaries, load-balancing polls and reports, the
// service-invocation envelope, and the directory IPC of §5.
//
// The format is hand-rolled over encoding/binary (no gob/json) so packet
// sizes are deterministic and comparable with the paper's measured
// 228-byte membership heartbeats. The bytes that make a packet that size are
// not written: a Heartbeat, RapidBeat or Gossip view ends in a pad field that
// declares an inert tail, and the simulator's network accounts for it
// (Padding; docs/WIRE.md §2). All integers are little-endian; strings
// and slices carry uint16/uint32 length prefixes. Decoding is strict:
// trailing bytes, truncation, or an unknown version yield an error, never
// a panic, and hostile length prefixes are bounded before allocation.
//
// The byte-level layout of the header and of every message, along with the
// version-evolution rules, is specified in docs/WIRE.md; codec.go holds
// the primitives and messages.go the message types, in the same order as
// the spec.
//
// Each body's layout is written once, as the body method of its message
// type: one statement per field, each a primitive of a codec (c.u64(&h.Seq),
// c.id(&h.Backup), c.str, c.bytes, and list for every counted slice).
// A codec runs in one of two directions — writing appends the fields to a
// packet, reading parses them into the message (with the read-side checks:
// bounded lengths, strict bools, the update-kind range and the info-flag
// consistency) — so the same statements encode and decode the message, and
// no layout is stated twice.
//
// Key API:
//
//   - Message: implemented by every packet body (Heartbeat, UpdateMsg,
//     DirectoryMsg, Gossip, ProxySummary, ServiceRequest, ...), each through
//     its body method.
//   - The kind table (kinds in messages.go): one row per type tag with its
//     name, the target Decode parses that kind's body into, and, for the
//     kinds a receiver meets once per beat or per request, a Decoder's
//     resident target. Type.String, Decode and Decoder all read it; adding a
//     kind is a constant, a message type with a body method, a row, and a
//     sample in the tests' table (TestEveryKindHasASample fails without one).
//   - Encode(m): serialize with the 8-byte packet header (magic, version,
//     type, body CRC) into a fresh buffer of a guessed 256 bytes. It is the
//     convenience form: its non-test callers are the directory IPC of
//     dirserver and figure code.
//     Every per-beat and per-request sender keeps one resident buffer and
//     frames each packet into it with AppendEncode (or AppendDirectory,
//     AppendGossip): the network copies what it sends (netsim.Transport), so
//     the buffer is free again when the send returns, and a warm one makes a
//     send allocate nothing.
//   - Decode(b): strict parse into the kind table's target for b's tag,
//     returning one of the concrete message types (a view, for the
//     record-carrying kinds below) or an error (ErrTruncated, ErrTrailing,
//     bad magic/version, unknown type).
//   - Decoder: the resident receive path. Same frame check, same body
//     methods and same result as Decode, but Heartbeat, UpdateMsg,
//     DirectoryView, GossipView, RapidBeat, RapidInfo and the four
//     request-path kinds are parsed into targets the decoder owns, valid
//     until its next Decode (an update message's list is the decoder's own
//     array, reused while it has room); nested slices and strings are still
//     fresh, and byte payloads and record lists are views of the packet on
//     both paths, valid as long as the packet (in the simulator, until the
//     handler returns).
//     The simulated network lends one to each packet it parses, for as
//     long as the packet's send buffer is held (netsim.Packet.Decode);
//     Decode is the fresh path for tests, tools and code that keeps the
//     message. docs/WIRE.md §4 states the lifetime rule.
//   - InfoList, InfoCursor and the views over them: the three packets that
//     carry member records in bulk — TDirectory, TGossip and the records of a
//     RapidView — are the bodies Decode does not build. Each run of records
//     is validated in a single walk and kept as an InfoList over the payload;
//     Decode returns an immutable DirectoryView or GossipView (or a RapidView
//     whose Infos is such a list), and one InfoCursor reads each record's
//     24-byte prefix in place and decodes the rest only on request.
//     AppendDirectory and AppendGossip are the matching senders, appending
//     a membership.Directory's records to the sender's buffer;
//     DirectoryMsg and Gossip are the slice-holding encode forms of the same
//     layouts. docs/WIRE.md §§3-4 state the views' immutability and lifetime
//     contract.
//   - TypeOf(b): the frame check alone, for code that counts packets by
//     kind.
//   - Padding(b) and Spoil(b): the two halves of a modelled tail. Padding
//     reads the tail a packet declares (0 for an unpadded kind or a frame
//     that fails the check), which the network adds to the packet's
//     accounted size; Spoil rewrites a packet's checksum so every decoder
//     rejects it, which is what the network does to a packet whose
//     uncarried tail a byte fault damaged or cut.
//   - Type: the packet-type tag carried in the header.
package wire
