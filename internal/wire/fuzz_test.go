package wire

import (
	"encoding/binary"
	"testing"

	"repro/internal/membership"
)

// FuzzDecode exercises the strict decoder with arbitrary bytes plus
// mutations of every sample of every packet kind. Decode must never panic and, when
// it succeeds, re-encoding the message must decode again (idempotent
// canonical form). Every input also goes through two warm Decoders, one last
// used on another kind and one on the input's own, and must come back
// DeepEqual to Decode's result, error included (checkResidentAgainstReference).
// The in-place paths are differential-tested against their materialising
// references on the same inputs: directory snapshots
// (checkViewAgainstReference), gossip views (checkGossipAgainstReference;
// FuzzGossipView drills them) and the request-path kinds (the copying
// reference in checkResidentAgainstReference).
func FuzzDecode(f *testing.F) {
	for _, ms := range samples {
		for _, m := range ms {
			f.Add(Encode(m))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x4D, 0x54, Version, 99, 0, 0, 0, 0})
	// A snapshot is validated in one walk and then read in place, so the
	// walk is the only guard: seed it with a body cut at every offset and
	// with every byte of it turned into a hostile count or length, all
	// under a valid checksum.
	snapshot := Encode(&DirectoryMsg{From: 4, Infos: []membership.MemberInfo{{Node: 1, Incarnation: 1, Beat: 3}, sampleInfo(), {Node: 9}}})
	for off := HeaderLen; off < len(snapshot); off++ {
		f.Add(reseal(append([]byte(nil), snapshot[:off]...)))
		hostile := append([]byte(nil), snapshot...)
		hostile[off] = 0xFF
		f.Add(reseal(hostile))
	}

	// The request-path kinds are parsed in place, by Decode and by a resident
	// Decoder, and a resident Decoder reuses its update list: seed the edges
	// of those paths (empty name, empty payload, a length one past the end, a
	// flipped checksum bit, a leave reading a reused join's slot, no updates,
	// an update list cut or damaged anywhere).
	for _, b := range residentSeeds() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Whatever the bytes, a warm Decoder must agree with Decode, and the
		// in-place paths with the copying reference, on accept/reject and on
		// every field.
		checkResidentAgainstReference(t, data)
		if goodHeader(data, TDirectory) {
			// Past the header only the body walk stands between these bytes
			// and a directory: it must reject exactly what building every
			// record would reject, and hand back nothing when it does.
			checkViewAgainstReference(t, data)
		}
		if goodHeader(data, TGossip) {
			checkGossipAgainstReference(t, data)
		}
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Canonical round trip: what decodes must re-encode and decode to
		// an equal byte stream.
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2 := Encode(m2)
		if string(re) != string(re2) {
			t.Fatalf("canonical form unstable:\n%x\n%x", re, re2)
		}
	})
}

// FuzzRapidAlert drills the rapid alert/view decode paths specifically:
// these are the packets the cut detector and configuration installer trust,
// so mutations must either fail decode or survive the canonical round trip —
// never panic, never alias.
func FuzzRapidAlert(f *testing.F) {
	seeds := []Message{
		&RapidAlert{Observer: 0, Subject: 14, ConfigSeq: 1, Seq: 1, Down: true},
		&RapidAlert{Observer: 9, Subject: 3, ConfigSeq: 7, Seq: 200, Down: false},
		&RapidView{Seq: 2, Proposer: 0, Members: []membership.NodeID{0, 1, 2, 3}},
		&RapidView{Seq: 9, Proposer: 4, Members: []membership.NodeID{4}, Infos: infoList(sampleInfo(), membership.MemberInfo{Node: 4})},
		&RapidBeat{From: 0, ConfigSeq: 1, Inc: 2, Beat: 3, Pad: 220},
		&RapidPropose{From: 0, Token: 3, Seq: 2, Evict: []membership.NodeID{14, 15}},
		&RapidVote{From: 14, Token: 3, OK: false, Alive: []membership.NodeID{14}},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{0x4D, 0x54, Version, byte(TRapidAlert), 0, 0, 0, 0})
	f.Add([]byte{0x4D, 0x54, Version, byte(TRapidView), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(m)
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if v, ok := m.(*RapidView); ok {
			// Hostile member counts must have been bounded by the decoder:
			// the slice the installer iterates is exactly what the bytes
			// carried, no over-allocation.
			if len(v.Members) > len(data) {
				t.Fatalf("decoded %d members from %d bytes", len(v.Members), len(data))
			}
		}
	})
}

// FuzzGossipView drills the gossip view's validating walk: past a good
// header it is the only guard between the bytes and a directory merge. A view
// must be accepted exactly when the slice-building reference decoder accepts
// the same bytes, with the same content under its cursor, and the cursor must
// stay inside the payload (checkGossipAgainstReference walks it over an
// exact-capacity copy). Inputs with any other header are resealed as TGossip
// so that every mutation reaches the body walk.
func FuzzGossipView(f *testing.F) {
	// The pad is declared, not carried; the 12-byte attribute keeps the view
	// at the length (and so the seed count) it had when the pad was.
	view := Encode(&Gossip{From: 5, Pad: 12, Entries: []GossipEntry{
		{Counter: 3, Info: membership.MemberInfo{Node: 1, Incarnation: 1, Beat: 3, Attrs: []membership.KV{{Key: "k", Value: "1234567"}}}},
		{Counter: 8, Info: sampleInfo()},
		{Counter: 1, Info: membership.MemberInfo{Node: -4, Beat: 1}},
	}})
	f.Add(view)
	f.Add(Encode(&Gossip{From: 1}))
	for off := HeaderLen; off < len(view); off++ {
		f.Add(append([]byte(nil), view[:off]...))
		hostile := append([]byte(nil), view...)
		hostile[off] = 0xFF
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < HeaderLen {
			return
		}
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(b, Magic)
		b[2], b[3] = Version, byte(TGossip)
		checkGossipAgainstReference(t, reseal(b))
	})
}
