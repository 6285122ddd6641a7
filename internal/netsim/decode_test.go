package netsim

import (
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
// back through Packet.Decode. Every call must go through the packet's record
// and return exactly what wire.Decode(pkt.Payload) returns, whichever record
// the packet was handed — a recycled buffer, a loose record, a tampered copy —
// and whatever that record parsed before.

// wireScript frames a world's script and checks every delivery's decode.
type wireScript struct {
	calls    []int    // per LP, like world.logs: handler decodes
	resident []int    // per LP: handler decodes through the packet's record
	bad      []string // per LP: the first mismatch
}

func newWireScript(lps int) *wireScript {
	return &wireScript{calls: make([]int, lps), resident: make([]int, lps), bad: make([]string, lps)}
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

// read is one handler call's decode, checked against a fresh decode; it
// hands back the script bytes (none from a damaged packet).
func (s *wireScript) read(ep *Endpoint, pkt Packet) []byte {
	s.calls[ep.lp]++
	if pkt.buf != nil && pkt.buf.refs > 0 && sameBytes(pkt.Payload, pkt.buf.b) {
		s.resident[ep.lp]++
	}
	m, err := pkt.Decode()
	want, wantErr := wire.Decode(pkt.Payload)
	if s.bad[ep.lp] == "" && (!reflect.DeepEqual(m, want) || !reflect.DeepEqual(err, wantErr)) {
		s.bad[ep.lp] = fmt.Sprintf("a packet from host %d decodes to %#v, %v; wire.Decode gives %#v, %v", pkt.Src, m, err, want, wantErr)
	}
	if err != nil {
		return nil
	}
	return binary.LittleEndian.AppendUint64(nil, value(m))
}

// Mutant: drop lists the holds under the receiver's bucket, not the sender's (-race).
// Mutant: arrive truncates without Endpoint.own (TestModelledTailMatchesMaterialised too).
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
				for lp, bad := range w.wire.bad {
					if bad != "" {
						t.Fatalf("%s: LP %d: %s", what, lp, bad)
					}
					calls += w.wire.calls[lp]
					resident += w.wire.resident[lp]
				}
				total.add(w.net.TotalStats())
			}
		}
	}
	t.Logf("%d handler decodes; faults %+v", calls, total)
	// Every handler decode must have gone through the packet's record, under
	// every byte fault.
	if calls == 0 || resident != calls {
		t.Fatalf("%d of %d handler decodes went through the packet's record", resident, calls)
	}
	if total.Corrupted == 0 || total.Truncated == 0 || total.Replayed == 0 || total.Stale == 0 || total.Dropped == 0 {
		t.Fatalf("faults not exercised: %+v", total)
	}
}
