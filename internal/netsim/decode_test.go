package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/membership"
	"repro/internal/wire"
)

// The differential test of recycled decoding. The seeded scripts of
// run_test.go run again with every payload framed as a wire packet — a kind
// per script id, from the resident kinds, the request path and one kind the
// decoder builds fresh, padded and not — so that handlers read their script
// back through Packet.Decode. Every call must return exactly what
// wire.Decode(pkt.Payload) returns, whichever memo the packet was handed and
// whatever that memo parsed before; and every packet a handler was given,
// kept as a copy of its bytes (the bytes themselves go back to the network
// when the handler returns), must still decode to its own bytes, and keep its
// size, after the run, when its memo has long been recycled.

// wireScript frames a world's script and checks every delivery's decode.
type wireScript struct {
	kept     [][]keptPacket // per LP, like world.logs
	resident []int          // per LP: handler decodes served by a memo
	bad      []string       // per LP: the first mismatch
}

type keptPacket struct {
	pkt  Packet
	size int
}

func newWireScript(lps int) *wireScript {
	return &wireScript{kept: make([][]keptPacket, lps), resident: make([]int, lps), bad: make([]string, lps)}
}

// frame encodes the eight script bytes as the value of a packet whose kind
// the script id picks.
func (*wireScript) frame(p []byte) []byte {
	v := binary.LittleEndian.Uint64(p)
	info := membership.MemberInfo{Node: 1, Incarnation: 1, Version: v,
		Services: []membership.ServiceDecl{{Name: "svc", Partitions: []int32{int32(p[2])}}}}
	var m wire.Message
	switch p[2] % 9 {
	case 0:
		m = &wire.Heartbeat{Info: info, Backup: membership.NoNode, Seq: v, Pad: 144}
	case 1:
		m = &wire.UpdateMsg{Sender: 1, Seq: v, Updates: []wire.Update{{ID: wire.UpdateID{Origin: 1, Counter: 1}, Kind: wire.UChange, Subject: 1, Info: info}}}
	case 2:
		m = &wire.DirectoryMsg{From: 1, Infos: []membership.MemberInfo{info, {Node: 2}}}
	case 3:
		m = &wire.Gossip{From: 1, Entries: []wire.GossipEntry{{Counter: 1, Info: info}}, Pad: 40}
	case 4:
		m = &wire.RapidBeat{From: 1, ConfigSeq: 1, Inc: 1, Beat: v, Pad: 166}
	case 5:
		m = &wire.RapidInfo{ConfigSeq: v, Info: info}
	case 6:
		m = &wire.ServiceRequest{ReqID: v, From: 1, Service: "svc", Payload: p}
	case 7:
		m = &wire.LoadPoll{From: 1, Token: v}
	default:
		m = &wire.RapidProbe{From: 1, Token: v} // a kind decoded fresh
	}
	return wire.Encode(m)
}

// value is the script value a decoded packet carries.
func value(m wire.Message) uint64 {
	switch m := m.(type) {
	case *wire.Heartbeat:
		return m.Seq
	case *wire.UpdateMsg:
		return m.Seq
	case *wire.DirectoryView:
		c := m.Cursor()
		c.Next()
		return c.Prefix().Version
	case *wire.GossipView:
		c := m.Cursor()
		c.Next()
		return c.Prefix().Version
	case *wire.RapidBeat:
		return m.Beat
	case *wire.RapidInfo:
		return m.ConfigSeq
	case *wire.ServiceRequest:
		return m.ReqID
	case *wire.LoadPoll:
		return m.Token
	case *wire.RapidProbe:
		return m.Token
	}
	panic(fmt.Sprintf("unframed kind %T", m))
}

// read is one handler call's decode: checked against a fresh decode, the
// packet kept, the script bytes handed back (none from a damaged packet).
func (s *wireScript) read(ep *Endpoint, pkt Packet) []byte {
	if pkt.memo() != nil {
		s.resident[ep.lp]++
	}
	m, err := pkt.Decode()
	s.check(ep.lp, pkt, m, err, "in its handler")
	kept := pkt
	kept.Payload = bytes.Clone(pkt.Payload)
	s.kept[ep.lp] = append(s.kept[ep.lp], keptPacket{kept, pkt.WireSize()})
	if err != nil {
		return nil
	}
	return binary.LittleEndian.AppendUint64(nil, value(m))
}

func (s *wireScript) check(lp int32, pkt Packet, m wire.Message, err error, when string) {
	want, wantErr := wire.Decode(pkt.Payload)
	if s.bad[lp] == "" && (!reflect.DeepEqual(m, want) || !reflect.DeepEqual(err, wantErr)) {
		s.bad[lp] = fmt.Sprintf("%s, a packet from host %d decodes to %#v, %v; wire.Decode gives %#v, %v", when, pkt.Src, m, err, want, wantErr)
	}
}

func TestRecycledDecodeMatchesFresh(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	var total Stats
	calls, resident := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		s := genScript(seed)
		for _, buckets := range []int{0, 1, 4} {
			for _, runCap := range []int{0, 1} {
				what := fmt.Sprintf("seed %d, %d buckets, runCap %d", seed, buckets, runCap)
				w := newWorld(seed, buckets, runCap)
				w.wire = newWireScript(len(w.engs))
				w.run(s)
				for lp, kept := range w.wire.kept {
					for _, k := range kept {
						m, err := k.pkt.Decode()
						w.wire.check(int32(lp), k.pkt, m, err, "after the run")
						if size := k.pkt.WireSize(); size != k.size && w.wire.bad[lp] == "" {
							w.wire.bad[lp] = fmt.Sprintf("after the run, a packet from host %d is %d bytes on the wire, %d in its handler", k.pkt.Src, size, k.size)
						}
					}
					if bad := w.wire.bad[lp]; bad != "" {
						t.Fatalf("%s: LP %d: %s", what, lp, bad)
					}
					calls += len(kept)
					resident += w.wire.resident[lp]
				}
				total.add(w.net.TotalStats())
			}
		}
	}
	t.Logf("%d handler decodes, %d through a memo; faults %+v", calls, resident, total)
	// The runs must have decoded through memos and around them, under every
	// byte fault.
	if resident == 0 || resident == calls {
		t.Fatalf("%d of %d handler decodes went through a memo", resident, calls)
	}
	if total.Corrupted == 0 || total.Truncated == 0 || total.Replayed == 0 || total.Stale == 0 || total.Dropped == 0 {
		t.Fatalf("faults not exercised: %+v", total)
	}
}
