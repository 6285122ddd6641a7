package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"

	"repro/internal/membership"
)

func sampleInfo() membership.MemberInfo {
	return membership.MemberInfo{
		Node:        7,
		Incarnation: 3,
		Version:     41,
		Services: []membership.ServiceDecl{
			{Name: "Retriever", Partitions: []int32{1, 2, 3}, Params: []membership.KV{{Key: "Port", Value: "8080"}}},
			{Name: "Cache", Partitions: []int32{0}},
		},
		Attrs: []membership.KV{{Key: "cpu", Value: "2x1.4GHz"}, {Key: "mem", Value: "2G"}},
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	// A snapshot or a gossip view decodes to a view over b, not back to the
	// message.
	switch in := m.(type) {
	case *DirectoryMsg:
		v := got.(*DirectoryView)
		if v.From != in.From || v.Ask != in.Ask || !reflect.DeepEqual(listInfos(v.Cursor()), in.Infos) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v %#v", in, v, listInfos(v.Cursor()))
		}
	case *Gossip:
		v := got.(*GossipView)
		var infos []membership.MemberInfo
		for _, e := range in.Entries {
			infos = append(infos, e.Info)
		}
		if v.From != in.From || v.pad != in.Pad || !reflect.DeepEqual(listInfos(v.Cursor()), infos) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v %#v", in, v, listInfos(v.Cursor()))
		}
	default:
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
		return got
	}
	if !bytes.Equal(Encode(got), b) {
		t.Fatal("re-encoding a view does not reproduce its packet")
	}
	return got
}

// samples holds messages of every kind, keyed by the kind's tag: the round
// trip, the FuzzDecode corpus and the resident-decoder differential all read it,
// and TestEveryKindHasASample fails for a row of the kind table without one.
var samples = [len(kinds)][]Message{
	THeartbeat: {
		&Heartbeat{Info: sampleInfo(), Level: 2, Leader: true, Backup: 9, Seq: 100},
		&Heartbeat{Info: membership.MemberInfo{Node: 1}, Backup: membership.NoNode},
		&Heartbeat{Info: sampleInfo(), Level: 1, Leader: true, Backup: 2, Seq: 7, Pad: 8},
	},
	TUpdate: {
		&UpdateMsg{Sender: 3, Seq: 8, Updates: []Update{
			{ID: UpdateID{Origin: 3, Counter: 8}, Kind: ULeave, Subject: 5},
			{ID: UpdateID{Origin: 3, Counter: 7}, Kind: UJoin, Subject: 6, Info: sampleInfo()},
			{ID: UpdateID{Origin: 2, Counter: 1}, Kind: UChange, Subject: 7, Info: sampleInfo()},
			{ID: UpdateID{Origin: 2, Counter: 2}, Kind: UDepart, Subject: 2},
		}},
		&UpdateMsg{Sender: 1, Seq: 1},
	},
	TBootstrapRequest: {&BootstrapRequest{From: 4, Level: 1}},
	TDirectory: {
		&DirectoryMsg{From: 2, Ask: true, Infos: []membership.MemberInfo{sampleInfo(), {Node: 1}}},
		&DirectoryMsg{From: 2},
	},
	TSyncRequest: {&SyncRequest{From: 11}},
	TGossip: {
		&Gossip{From: 5, Entries: []GossipEntry{{Counter: 42, Info: sampleInfo()}, {Counter: 7, Info: membership.MemberInfo{Node: 2}}}},
		&Gossip{From: 5, Entries: []GossipEntry{{Counter: 3, Info: sampleInfo()}}, Pad: 16},
	},
	TProxySummary: {&ProxySummary{DC: 1, Seq: 9, Chunk: 0, NChunks: 2, Entries: []SummaryEntry{
		{Service: "Retriever", Partitions: []int32{0, 1}, Nodes: 6},
		{Service: "HTTP", Nodes: 2},
	}}},
	TProxyUpdate:    {&ProxyUpdate{DC: 0, Seq: 3, Upserts: []SummaryEntry{{Service: "Doc", Partitions: []int32{2}, Nodes: 1}}, Removes: []string{"Retriever", "HTTP"}}},
	TServiceRequest: {&ServiceRequest{ReqID: 77, From: 3, Service: "idx", Partition: 2, Hops: 1, Payload: []byte("query")}},
	TServiceReply: {
		&ServiceReply{ReqID: 77, OK: true, Payload: []byte("result")},
		&ServiceReply{ReqID: 78, OK: false},
	},
	TLoadPoll:   {&LoadPoll{From: 3, Token: 123}},
	TLoadReply:  {&LoadReply{Token: 123, Load: 17}},
	TLoadReport: {&LoadReport{From: 1, Seq: 2, Load: 3}},
	TDirQuery:   {&DirQuery{Service: "Retr.*", Partition: "*"}},
	TDirMatches: {
		&DirMatches{OK: true, Matches: []DirMatch{
			{Node: 2, Service: "S", Partitions: []int32{0, 1},
				Params: []membership.KV{{Key: "Port", Value: "80"}}, Attrs: []membership.KV{{Key: "mem", Value: "2G"}}},
			{Node: 5, Service: "T"},
		}},
		&DirMatches{Error: "bad pattern"},
	},
	TRapidBeat: {&RapidBeat{From: 3, ConfigSeq: 5, Inc: 2, Beat: 77}, &RapidBeat{From: 3, ConfigSeq: 2, Inc: 1, Beat: 99, Pad: 8}},
	TRapidInfo: {&RapidInfo{ConfigSeq: 5, Info: sampleInfo()}},
	TRapidAlert: {
		&RapidAlert{Observer: 1, Subject: 9, ConfigSeq: 5, Seq: 12, Down: true},
		&RapidAlert{Observer: 1, Subject: 9, ConfigSeq: 5, Seq: 13},
	},
	TRapidJoin: {&RapidJoin{From: 8, ConfigSeq: 4, Info: sampleInfo()}},
	TRapidView: {
		&RapidView{Seq: 6, Proposer: 0, Members: []membership.NodeID{0, 1, 2}, Infos: infoList(sampleInfo(), membership.MemberInfo{Node: 1})},
		&RapidView{Seq: 1, Proposer: membership.NoNode, Members: []membership.NodeID{3}},
	},
	TRapidProbe:    {&RapidProbe{From: 0, Token: 42}},
	TRapidProbeAck: {&RapidProbeAck{From: 9, Token: 42}},
	TRapidSync:     {&RapidSync{From: 2, ConfigSeq: 3}},
	TRapidPropose: {
		&RapidPropose{From: 0, Token: 9, Seq: 4, Evict: []membership.NodeID{7, 11}},
		&RapidPropose{From: 5, Token: 10, Seq: 2},
	},
	TRapidVote: {
		&RapidVote{From: 3, Token: 9, OK: true},
		&RapidVote{From: 6, Token: 9, OK: false, Alive: []membership.NodeID{7}},
	},
	THandoff: {&Handoff{From: 3, Level: 1, Seq: 9, Successor: 5}},
	TReform: {
		&Reform{From: 2, Epoch: 4, NewChannel: 77, Movers: []membership.NodeID{5, 6, 7}},
		&Reform{From: 2, Epoch: 5, NewChannel: 1},
	},
}

// TestEveryKindHasASample: a kind added to the table without a sample would
// go untested by the round trip, the fuzz corpus and the resident-decoder
// differential alike.
func TestEveryKindHasASample(t *testing.T) {
	for i, k := range kinds {
		typ := Type(i)
		if k.fresh == nil && len(samples[typ]) > 0 {
			t.Errorf("%v: samples of a tag that is never sent", typ)
		}
		if k.fresh != nil && len(samples[typ]) == 0 {
			t.Errorf("kind %v has no sample", typ)
		}
		for _, m := range samples[typ] {
			if m.wireType() != typ {
				t.Errorf("sample %T under %v encodes as %v", m, typ, m.wireType())
			}
		}
	}
}

// TestRoundTripAll decodes every sample back to itself (to a view of itself,
// for the record-carrying kinds) and holds the resident request path to the
// copying reference on it.
func TestRoundTripAll(t *testing.T) {
	for _, ms := range samples {
		for _, m := range ms {
			roundTrip(t, m)
			checkResidentAgainstReference(t, Encode(m))
		}
	}
}

// TestWireSpecListsEveryKind reads the packet-type constants from this
// package's source and fails unless docs/WIRE.md's tag table has a row for
// each, under its tag, and the kind table a row for each name.
func TestWireSpecListsEveryKind(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts []string
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST && len(g.Specs) > 0 && g.Specs[0].(*ast.ValueSpec).Names[0].Name == "TInvalid" {
			for _, spec := range g.Specs {
				consts = append(consts, spec.(*ast.ValueSpec).Names[0].Name)
			}
		}
	}
	spec, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| (\\d+) +\\| `(T\\w+)`").FindAllStringSubmatch(string(spec), -1) {
		rows[m[2]] = m[1]
	}
	for tag, name := range consts[1:] {
		if got := rows[name]; got != fmt.Sprint(tag+1) {
			t.Errorf("docs/WIRE.md's tag table: %s is at tag %q, want %d", name, got, tag+1)
		}
		if kinds[tag+1].fresh == nil {
			t.Errorf("%s has no row in the kind table", name)
		}
	}
	if len(rows) != len(consts)-1 {
		t.Errorf("docs/WIRE.md's tag table has %d rows for %d packet types", len(rows), len(consts)-1)
	}
}

// TestHeartbeatPadding: a pad grows a heartbeat's modelled size — its bytes
// plus the tail it declares — by exactly the pad, and its bytes not at all.
func TestHeartbeatPadding(t *testing.T) {
	small := Encode(&Heartbeat{Info: sampleInfo(), Backup: membership.NoNode})
	big := Encode(&Heartbeat{Info: sampleInfo(), Backup: membership.NoNode, Pad: 500})
	modelled := func(b []byte) int { return len(b) + Padding(b) }
	if d := modelled(big) - modelled(small); d != 500 {
		t.Fatalf("modelled pad delta = %d, want 500", d)
	}
	if len(big) != len(small) {
		t.Fatalf("a 500-byte pad carried %d bytes", len(big)-len(small))
	}
	m, err := Decode(big)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*Heartbeat).Pad != 500 {
		t.Fatal("pad size lost")
	}
}

// TestPaddingReadsTheDeclaredTail: Padding is each padded kind's pad field,
// and 0 for every other kind and for any frame cut short or damaged.
func TestPaddingReadsTheDeclaredTail(t *testing.T) {
	padded := []struct {
		m   Message
		pad int
	}{
		{&Heartbeat{Info: sampleInfo(), Backup: membership.NoNode, Pad: 144}, 144},
		{&Heartbeat{Info: sampleInfo(), Backup: membership.NoNode}, 0},
		{&RapidBeat{From: 3, ConfigSeq: 2, Inc: 1, Beat: 9, Pad: 166}, 166},
		{&Gossip{From: 5, Entries: []GossipEntry{{Counter: 3, Info: sampleInfo()}}, Pad: 280}, 280},
		{&Gossip{From: 5, Pad: 70000}, 70000},
	}
	for _, tc := range padded {
		b := Encode(tc.m)
		if got := Padding(b); got != tc.pad {
			t.Errorf("%T: Padding = %d, want %d", tc.m, got, tc.pad)
		}
		for cut := 0; cut < len(b); cut++ {
			if got := Padding(b[:cut]); got != 0 {
				t.Fatalf("%T cut to %d of %d bytes declares %d", tc.m, cut, len(b), got)
			}
		}
		damaged := append([]byte(nil), b...)
		damaged[len(damaged)-1] ^= 0x80 // the pad field itself
		if got := Padding(damaged); got != 0 {
			t.Errorf("%T with a damaged pad field declares %d", tc.m, got)
		}
	}
	for _, ms := range samples {
		for _, m := range ms {
			switch m.wireType() {
			case THeartbeat, TRapidBeat, TGossip:
				continue
			}
			if got := Padding(Encode(m)); got != 0 {
				t.Errorf("unpadded %T declares %d", m, got)
			}
		}
	}
}

// TestSpoilRejectsEverywhere: a spoiled packet fails every frame check with
// ErrChecksum, and a second spoil does not restore it.
func TestSpoilRejectsEverywhere(t *testing.T) {
	var d Decoder
	for _, m := range []Message{&Heartbeat{Info: sampleInfo(), Pad: 9}, &Gossip{From: 2, Pad: 4}, &LoadPoll{From: 1, Token: 2}} {
		for spoils := 1; spoils <= 2; spoils++ {
			b := Encode(m)
			for i := 0; i < spoils; i++ {
				Spoil(b)
			}
			if _, err := Decode(b); err != ErrChecksum {
				t.Errorf("%T spoiled %d times: Decode says %v", m, spoils, err)
			}
			if _, err := d.Decode(b); err != ErrChecksum {
				t.Errorf("%T spoiled %d times: Decoder says %v", m, spoils, err)
			}
		}
	}
	short := []byte{0x4D, 0x54, Version}
	Spoil(short)
	if string(short) != string([]byte{0x4D, 0x54, Version}) {
		t.Fatal("Spoil wrote into a frame shorter than a header")
	}
}

// reseal recomputes the header checksum of a hand-built or tampered
// packet, so tests exercise the check they target rather than tripping the
// CRC first.
func reseal(b []byte) []byte {
	if len(b) >= HeaderLen {
		binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[HeaderLen:], crcTable))
	}
	return b
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(&SyncRequest{From: 1})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01 // body damage: CRC must catch it
	cases := map[string][]byte{
		"empty":       {},
		"short":       {0x4D, 0x54, Version, byte(TSyncRequest)},
		"bad magic":   reseal([]byte{0, 0, Version, byte(TSyncRequest), 0, 0, 0, 0, 1, 0, 0, 0}),
		"bad version": reseal([]byte{0x4D, 0x54, 99, byte(TSyncRequest), 0, 0, 0, 0, 1, 0, 0, 0}),
		"bad type":    reseal([]byte{0x4D, 0x54, Version, 200, 0, 0, 0, 0}),
		"bad crc":     flipped,
		"truncated":   good[:len(good)-1],
		"trailing":    reseal(append(append([]byte{}, good...), 0xFF)),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode succeeded, want error", name)
		}
	}
	if _, err := Decode(flipped); err != ErrChecksum {
		t.Errorf("flipped body: err = %v, want ErrChecksum", err)
	}
}

func TestDecodeHostileLengths(t *testing.T) {
	// A directory message claiming 2^31 entries must fail cleanly — with a
	// valid checksum, so the length bound (not the CRC) is what rejects it.
	c := codec{reader: reader{buf: []byte{0x4D, 0x54, Version, byte(TDirectory), 0, 0, 0, 0}}}
	from, ask, n := membership.NodeID(1), false, 1<<31
	c.id(&from)
	c.bool(&ask)
	c.count(&n)
	if _, err := Decode(reseal(c.buf)); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestDecodeRejectsBadUpdateKind(t *testing.T) {
	good := Encode(&UpdateMsg{Sender: 3, Seq: 8, Updates: []Update{
		{ID: UpdateID{Origin: 3, Counter: 8}, Kind: ULeave, Subject: 5},
	}})
	// The kind byte sits after header(8) + sender(4) + seq(8) + count(4) +
	// origin(4) + counter(4).
	bad := append([]byte(nil), good...)
	bad[8+4+8+4+4+4] = 200
	if _, err := Decode(reseal(bad)); err == nil {
		t.Fatal("invalid update kind accepted")
	}
	// A leave claiming to carry info is likewise non-canonical input.
	inconsistent := append([]byte(nil), good...)
	inconsistent[len(inconsistent)-1] = 1 // hasInfo flag is the last body byte
	if _, err := Decode(reseal(inconsistent)); err == nil {
		t.Fatal("info flag inconsistent with kind accepted")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// Random corruption of valid packets must return errors, not panic.
	rng := rand.New(rand.NewSource(5))
	base := Encode(&UpdateMsg{Sender: 3, Seq: 8, Updates: []Update{
		{ID: UpdateID{Origin: 3, Counter: 8}, Kind: UJoin, Subject: 5, Info: sampleInfo()},
	}})
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			b = b[:rng.Intn(len(b))]
		}
		Decode(b) // must not panic; error or a different message both fine
	}
}

func TestPropertyInfoRoundTrip(t *testing.T) {
	f := func(node int32, inc uint32, ver uint64, svc, attr string, parts []int32) bool {
		m := membership.MemberInfo{Node: membership.NodeID(node), Incarnation: inc, Version: ver}
		if len(parts) == 0 {
			parts = nil // the codec canonicalizes empty slices to nil
		}
		if svc != "" {
			m.Services = []membership.ServiceDecl{{Name: svc, Partitions: parts}}
		}
		if attr != "" {
			m.SetAttr("a", attr)
		}
		b := Encode(&DirectoryMsg{From: m.Node, Infos: []membership.MemberInfo{m}})
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(listInfos(got.(*DirectoryView).Cursor())[0], m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	if THeartbeat.String() != "heartbeat" || TGossip.String() != "gossip" {
		t.Fatal("Type.String broken")
	}
	if UJoin.String() != "join" || ULeave.String() != "leave" || UChange.String() != "change" {
		t.Fatal("UpdateKind.String broken")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := &Heartbeat{Info: sampleInfo(), Leader: true, Backup: 2, Seq: 9}
	if !bytes.Equal(Encode(m), Encode(m)) {
		t.Fatal("Encode not deterministic")
	}
}

func TestHeartbeatSizeReasonable(t *testing.T) {
	// The paper measured 228-byte heartbeats carrying one node's
	// membership info; our encoding of a comparable record should be the
	// same order of magnitude.
	b := Encode(&Heartbeat{Info: sampleInfo(), Backup: membership.NoNode})
	if len(b) < 50 || len(b) > 500 {
		t.Fatalf("heartbeat size = %d bytes; implausible", len(b))
	}
}

// TestAppendEncodeMatchesEncode pins the Encoder path to the canonical
// framing: same bytes, appended after any existing prefix, zero allocations
// once the buffer is warm.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	msgs := []Message{
		&Heartbeat{Info: sampleInfo(), Level: 1, Leader: true, Backup: 2, Seq: 9, Pad: 16},
		&UpdateMsg{Sender: 3, Seq: 42, Updates: []Update{{ID: UpdateID{Origin: 3, Counter: 41}, Kind: ULeave, Subject: 7}}},
		&SyncRequest{From: 5},
	}
	var enc Encoder
	for _, m := range msgs {
		want := Encode(m)
		got := enc.AppendEncode(nil, m)
		if string(got) != string(want) {
			t.Fatalf("%T: AppendEncode differs from Encode", m)
		}
		prefixed := enc.AppendEncode([]byte("prefix"), m)
		if string(prefixed) != "prefix"+string(want) {
			t.Fatalf("%T: AppendEncode clobbered the existing prefix", m)
		}
		if dec, err := Decode(got); err != nil {
			t.Fatalf("%T: round trip failed: %v", dec, err)
		}
	}
	hb := msgs[0]
	buf := enc.AppendEncode(nil, hb)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = enc.AppendEncode(buf[:0], hb)
	})
	if allocs > 0 {
		t.Fatalf("warm AppendEncode allocates %.1f per op, want 0", allocs)
	}
}
