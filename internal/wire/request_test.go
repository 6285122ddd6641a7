package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/membership"
)

// refDecodeRequestKind is the copying parser the request-path kinds had
// before they were decoded in place — every field built fresh, the payload
// copied out — kept here as the reference the in-place path is held to.
func refDecodeRequestKind(b []byte) (Message, error) {
	r := &reader{buf: b}
	if r.u16() != Magic {
		return nil, fmt.Errorf("wire: bad magic")
	}
	if v := r.u8(); v != Version {
		return nil, fmt.Errorf("wire: unsupported version %d", v)
	}
	t := Type(r.u8())
	sum := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if crc32.Checksum(b[HeaderLen:], crcTable) != sum {
		return nil, ErrChecksum
	}
	bytesField := func() []byte {
		n := r.sliceLen()
		return append([]byte(nil), r.take(n)...)
	}
	var m Message
	switch t {
	case TServiceRequest:
		m = &ServiceRequest{ReqID: r.u64(), From: membership.NodeID(r.u32()), Service: r.str(""),
			Partition: int32(r.u32()), Hops: r.u8(), Payload: bytesField()}
	case TServiceReply:
		m = &ServiceReply{ReqID: r.u64(), OK: r.bool(), Payload: bytesField()}
	case TLoadPoll:
		m = &LoadPoll{From: membership.NodeID(r.u32()), Token: r.u64()}
	case TLoadReply:
		m = &LoadReply{Token: r.u64(), Load: r.u32()}
	default:
		return nil, nil // not a request-path kind
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// warmers holds one message of every resident kind, each unlike every
// sample, for warmDecoder to leave behind in a decoder's targets.
var warmers = []Message{
	&Heartbeat{Info: membership.MemberInfo{Node: 99, Incarnation: 9, Version: 9, Beat: 9,
		Services: []membership.ServiceDecl{{Name: "stale", Partitions: []int32{9}}}}, Level: 9, Leader: true, Backup: 99, Seq: 999, Pad: 9},
	&UpdateMsg{Sender: 99, Seq: 999, Updates: staleJoins(6)},
	&DirectoryMsg{From: 99, Ask: true, Infos: []membership.MemberInfo{{Node: 99, Beat: 9, Attrs: []membership.KV{{Key: "stale", Value: "9"}}}}},
	&Gossip{From: 99, Entries: []GossipEntry{{Counter: 9, Info: membership.MemberInfo{Node: 99, Beat: 9}}}, Pad: 9},
	&RapidBeat{From: 99, ConfigSeq: 9, Inc: 9, Beat: 999, Pad: 9},
	&RapidInfo{ConfigSeq: 9, Info: membership.MemberInfo{Node: 99, Attrs: []membership.KV{{Key: "stale", Value: "9"}}}},
	&ServiceRequest{ReqID: 99, From: 9, Service: "warm", Partition: 9, Hops: 9, Payload: []byte("stale request")},
	&ServiceReply{ReqID: 99, OK: true, Payload: []byte("stale reply")},
	&LoadPoll{From: 9, Token: 99},
	&LoadReply{Token: 99, Load: 99},
}

// staleJoins is a warm update list longer than any seed's, of joins whose
// records publish services and attributes, so an element a later decode
// reuses without zeroing shows them.
func staleJoins(n int) []Update {
	us := make([]Update, n)
	for i := range us {
		us[i] = Update{ID: UpdateID{Origin: 9, Counter: uint32(99 - i)}, Kind: UJoin, Subject: 99, Info: membership.MemberInfo{
			Node: 99, Incarnation: 9, Version: 9, Beat: 9,
			Services: []membership.ServiceDecl{{Name: "stale", Partitions: []int32{9}}},
			Attrs:    []membership.KV{{Key: "stale", Value: "9"}}}}
	}
	return us
}

// warmDecoder returns a decoder whose every resident target already holds
// another packet's fields and whose last decode was of kind last (its warmer,
// or a sample of a kind without one), so a test sees what survives from one
// packet into the next: nothing may.
func warmDecoder(t testing.TB, last Type) *Decoder {
	d := new(Decoder)
	ms := warmers
	for _, m := range warmers {
		if m.wireType() == last {
			ms = append(ms[:len(ms):len(ms)], m)
		}
	}
	if len(ms) == len(warmers) && len(samples[last]) > 0 {
		ms = append(ms[:len(ms):len(ms)], samples[last][0])
	}
	for _, m := range ms {
		b := Encode(m)
		got, err := d.Decode(b)
		if want, wantErr := Decode(b); err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("warm-up decode of %#v: %#v, %v", m, got, err)
		}
	}
	return d
}

// otherKind is a resident kind other than t.
func otherKind(t Type) Type {
	if t == THeartbeat {
		return TRapidInfo
	}
	return THeartbeat
}

// checkResidentAgainstReference decodes b with Decode and with two warm
// Decoders — last used on another kind, and on b's own — and fails unless all
// three return the same message under reflect.DeepEqual and the same error.
// For the request-path kinds it also holds them to the copying reference, on
// accept/reject, on the error and on every field, and fails unless the payload
// is a clipped view of b. And b must come out untouched. b is copied into a
// buffer of exactly its length first, so a read past the input is a bounds
// panic rather than a silent look at spare capacity.
func checkResidentAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	b := append(make([]byte, 0, len(data)), data...)
	want, wantErr := refDecodeRequestKind(b)
	full, fullErr := Decode(b)
	var typ Type
	if len(b) >= HeaderLen {
		typ = Type(b[3])
	}
	var got Message
	for _, last := range []Type{otherKind(typ), typ} {
		var err error
		got, err = warmDecoder(t, last).Decode(b)
		if !reflect.DeepEqual(got, full) || !reflect.DeepEqual(err, fullErr) {
			t.Fatalf("decoder last used on %v: %#v, %v\nDecode: %#v, %v\n%x", last, got, err, full, fullErr, b)
		}
	}
	if !bytes.Equal(b, data) {
		t.Fatalf("decoding wrote to the packet:\n%x\n%x", data, b)
	}
	if want == nil && wantErr == nil {
		return // a sound frame around some other kind
	}
	if fmt.Sprint(fullErr) != fmt.Sprint(wantErr) {
		t.Fatalf("errors differ: reference %v, Decode %v\n%x", wantErr, fullErr, b)
	}
	if wantErr != nil {
		if full != nil {
			t.Fatalf("rejected packet still yielded %#v", full)
		}
		return
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("fields differ:\nreference %#v\nDecode    %#v", want, full)
	}
	for _, m := range []Message{got, full} {
		var p []byte
		switch m := m.(type) {
		case *ServiceRequest:
			p = m.Payload
		case *ServiceReply:
			p = m.Payload
		}
		if len(p) == 0 {
			if p != nil {
				t.Fatalf("empty payload decoded as %#v, want nil", p)
			}
			continue
		}
		// The payload is the packet's tail (it is each body's last field),
		// with no capacity beyond it.
		if cap(p) != len(p) || &p[0] != &b[len(b)-len(p)] {
			t.Fatalf("payload is not a clipped view of the packet: len %d cap %d", len(p), cap(p))
		}
	}
}

// residentSeeds are the edge cases of the in-place decoders, fed to
// FuzzDecode's corpus and checked directly by TestRequestDecoderEdgeCases.
func residentSeeds() [][]byte {
	req := Encode(&ServiceRequest{ReqID: 1, From: 2, Service: "app", Partition: 3, Hops: 1, Payload: []byte("payload")})
	// The payload's length prefix says one byte more than the packet holds.
	pastEnd := append([]byte(nil), req...)
	binary.LittleEndian.PutUint32(pastEnd[len(pastEnd)-len("payload")-4:], uint32(len("payload")+1))
	// One CRC bit flipped over an intact body.
	badSum := append([]byte(nil), req...)
	badSum[5] ^= 0x10
	// An update list a warm decoder reads into its own array, reused from
	// the warmer's longer list of joins: it starts with a leave, which
	// carries no record.
	upd := Encode(&UpdateMsg{Sender: 4, Seq: 12, Updates: []Update{
		{ID: UpdateID{Origin: 4, Counter: 12}, Kind: ULeave, Subject: 5},
		{ID: UpdateID{Origin: 2, Counter: 3}, Kind: UJoin, Subject: 7, Info: sampleInfo()},
		{ID: UpdateID{Origin: 4, Counter: 11}, Kind: UDepart, Subject: 4},
	}})
	seeds := [][]byte{
		req,
		Encode(&ServiceRequest{ReqID: 1, From: 2, Service: "", Partition: -1, Payload: []byte("p")}),
		Encode(&ServiceRequest{ReqID: 1, From: 2, Service: "app", Partition: 0}),
		Encode(&ServiceReply{ReqID: 1, OK: true}),
		Encode(&ServiceReply{ReqID: 1, OK: false, Payload: []byte("r")}),
		reseal(pastEnd),
		badSum,
		reseal(append(append([]byte(nil), req...), 0)),   // trailing byte
		reseal(append([]byte(nil), req[:len(req)-3]...)), // payload cut short
		Encode(&LoadPoll{From: 1, Token: 2}),
		Encode(&LoadReply{Token: 2, Load: 3}),
		reseal(Encode(&LoadReply{Token: 2, Load: 3})[:HeaderLen+11]),
		Encode(&LoadReport{From: 1, Seq: 2, Load: 3}), // a kind the resident path leaves alone
		upd,
		Encode(&UpdateMsg{Sender: 4, Seq: 13}), // no updates: a nil list, as Decode reads it
	}
	// The update list cut at every offset, and every byte of it made a
	// hostile count or length, under a valid checksum: a decode that fails
	// part-way leaves the decoder's array half written for the next one.
	for off := HeaderLen; off < len(upd); off++ {
		seeds = append(seeds, reseal(append([]byte(nil), upd[:off]...)))
		hostile := append([]byte(nil), upd...)
		hostile[off] = 0xFF
		seeds = append(seeds, reseal(hostile))
	}
	return seeds
}

// Mutant: reuse drops its clear, so a reused update list keeps a stale Info.
func TestRequestDecoderEdgeCases(t *testing.T) {
	for _, b := range residentSeeds() {
		checkResidentAgainstReference(t, b)
	}
	// Every prefix and every single-byte damage of a request and a reply,
	// with and without a repaired checksum.
	for _, m := range []Message{
		&ServiceRequest{ReqID: 7, From: 1, Service: "Echo", Partition: 2, Hops: 1, Payload: []byte("hello")},
		&ServiceReply{ReqID: 7, OK: true, Payload: []byte("world")},
	} {
		good := Encode(m)
		for off := 0; off <= len(good); off++ {
			cut := append([]byte(nil), good[:off]...)
			checkResidentAgainstReference(t, cut)
			checkResidentAgainstReference(t, reseal(cut))
			if off < len(good) {
				hostile := append([]byte(nil), good...)
				hostile[off] = 0xFF
				checkResidentAgainstReference(t, hostile)
				checkResidentAgainstReference(t, reseal(hostile))
			}
		}
	}
}

// TestDecodedPayloadIsAClippedView pins the aliasing contract of docs/WIRE.md
// §4: the payload of a decoded request is the packet's own bytes, and an
// append to it copies out instead of writing over the packet.
func TestDecodedPayloadIsAClippedView(t *testing.T) {
	pkt := Encode(&ServiceRequest{ReqID: 1, From: 2, Service: "app", Payload: []byte("abc")})
	pkt = append(pkt, 0xEE)[:len(pkt)] // spare capacity an unclipped view would expose
	before := append([]byte(nil), pkt[:len(pkt)+1]...)
	m, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	p := m.(*ServiceRequest).Payload
	grown := append(p, 'X')
	if &grown[0] == &p[0] {
		t.Fatal("append grew the payload in place, inside the packet")
	}
	if !bytes.Equal(pkt[:len(pkt)+1], before) {
		t.Fatalf("append wrote into the packet: %x -> %x", before, pkt[:len(pkt)+1])
	}
}

// TestRequestDecoderReusesServiceName checks the one string on the request
// path is made once per distinct name, not once per packet, and that a
// different name is never confused with the resident one.
func TestRequestDecoderReusesServiceName(t *testing.T) {
	var d Decoder
	a := Encode(&ServiceRequest{ReqID: 1, Service: "alpha", Payload: []byte("x")})
	b := Encode(&ServiceRequest{ReqID: 2, Service: "alphb", Payload: []byte("y")})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.Decode(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady decode of one service name allocates %v times per packet", n)
	}
	for i, pkt := range [][]byte{a, b, b, a} {
		m, err := d.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Decode(pkt)
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("packet %d: resident %#v, fresh %#v", i, m, want)
		}
	}
}

// TestDecoderHotKindsAllocateNothing: a warm Decoder parses each resident
// kind that carries no nested list without allocating: the message is its own
// target, an update list reuses the decoder's array, and a record list is a
// view of the packet.
func TestDecoderHotKindsAllocateNothing(t *testing.T) {
	info := membership.MemberInfo{Node: 3, Incarnation: 1, Beat: 9}
	var d Decoder
	for _, m := range []Message{
		&Heartbeat{Info: info, Backup: 2, Seq: 9, Pad: 144},
		&UpdateMsg{Sender: 1, Seq: 2},
		&UpdateMsg{Sender: 1, Seq: 6, Updates: []Update{
			{ID: UpdateID{Origin: 1, Counter: 6}, Kind: ULeave, Subject: 4},
			{ID: UpdateID{Origin: 1, Counter: 5}, Kind: UDepart, Subject: 5},
			{ID: UpdateID{Origin: 2, Counter: 9}, Kind: UJoin, Subject: 3, Info: info},
			{ID: UpdateID{Origin: 1, Counter: 4}, Kind: UJoin, Subject: 6, Info: membership.MemberInfo{Node: 6, Incarnation: 2}},
		}},
		&DirectoryMsg{From: 1, Infos: []membership.MemberInfo{info, sampleInfo()}},
		&Gossip{From: 3, Entries: []GossipEntry{{Counter: 9, Info: info}}, Pad: 20},
		&RapidBeat{From: 3, ConfigSeq: 1, Inc: 1, Beat: 9, Pad: 166},
		&RapidInfo{ConfigSeq: 1, Info: info},
	} {
		b := Encode(m)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := d.Decode(b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%T: a warm decode allocates %v times", m, n)
		}
	}
}

// BenchmarkRequestDecodeInPlace measures the receive half of a request/reply
// round trip on the resident path; it must not allocate.
func BenchmarkRequestDecodeInPlace(b *testing.B) {
	req := Encode(&ServiceRequest{ReqID: 1, From: 2, Service: "app", Partition: 3, Payload: make([]byte, 64)})
	reply := Encode(&ServiceReply{ReqID: 1, OK: true, Payload: make([]byte, 64)})
	var d Decoder
	round := func() {
		if _, err := d.Decode(req); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Decode(reply); err != nil {
			b.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		b.Fatalf("in-place request+reply decode allocates %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
