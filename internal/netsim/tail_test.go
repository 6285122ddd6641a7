package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The differential test of the modelled tail. A padded heartbeat, rapid beat
// or gossip view declares its tail (wire.Padding) and the network accounts
// for it; it used to be a run of zeros the sender wrote, the body checksum
// covered and the byte faults drew over. The reference restores that: it
// materialises each padded packet — its bytes, the tail as zeros, a checksum
// over both — and judges it as the decoder of that format did. Per delivery,
// the two must agree on the verdict, on WireSize and on the engine's next
// draw; the faults subtest holds the corruption and the cut to test-local
// copies of the carried-tail code, and the script subtest runs both forms
// through the network, serially and partitioned.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal writes the checksum of b's body into its header.
func seal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[wire.HeaderLen:], castagnoli))
	return b
}

// materialise is the packet b stood for when tails were carried: its bytes,
// its declared tail as zeros, and a checksum over both. It declares no tail:
// its last field reads as zero.
func materialise(b []byte) []byte {
	return seal(append(append([]byte(nil), b...), make([]byte, wire.Padding(b))...))
}

// padWidth is the width of the pad field that ends each padded kind's body.
var padWidth = map[wire.Type]int{wire.THeartbeat: 2, wire.TRapidBeat: 2, wire.TGossip: 4}

// carriedAccepts is the verdict of the carried-tail decoder on b: the frame
// checked over every byte, then the body parsed up to its pad field and that
// many bytes skipped — that is, some cut of b after which exactly the pad
// field's count of bytes remains decodes as a packet of its own.
func carriedAccepts(b []byte) bool {
	if _, err := wire.TypeOf(b); err != nil {
		return false
	}
	w := padWidth[wire.Type(b[3])]
	if w == 0 {
		_, err := wire.Decode(b)
		return err == nil
	}
	for body := len(b); body >= wire.HeaderLen+w; body-- {
		var field [4]byte
		copy(field[:], b[body-w:body])
		if int(binary.LittleEndian.Uint32(field[:])) != len(b)-body {
			continue
		}
		if _, err := wire.Decode(seal(append([]byte(nil), b[:body]...))); err == nil {
			return true
		}
	}
	return false
}

// corruptCarried is the corruption of carried tails: one to four bit flips
// anywhere in a copy of b. It also reports how many flips landed at or past
// offset tail.
func corruptCarried(r *rand.Rand, b []byte, tail int) ([]byte, int) {
	if len(b) == 0 {
		return b, 0
	}
	out := append([]byte(nil), b...)
	hits := 0
	flips := 1 + r.Intn(4)
	for i := 0; i < flips; i++ {
		off := r.Intn(len(out))
		out[off] ^= 1 << uint(r.Intn(8))
		if off >= tail {
			hits++
		}
	}
	return out, hits
}

// Mutant: Packet.corrupt draws its offset over len(p.Payload), not the modelled length.
func TestModelledTailMatchesMaterialised(t *testing.T) {
	t.Run("faults", testTailFaults)
	t.Run("script", testTailScript)
}

// testTailFaults applies corruption, a cut, or both to each packet under
// thousands of seeds, modelled and carried from one seed each, and counts the
// cases where the two forms could part: tail flips that cancel, a cut right
// after the carried bytes, a cut at the very end.
func testTailFaults(t *testing.T) {
	info := membership.MemberInfo{Node: 3, Incarnation: 1, Beat: 9}
	packets := [][]byte{
		wire.Encode(&wire.Heartbeat{Info: info, Backup: membership.NoNode, Seq: 9, Pad: 144}),
		wire.Encode(&wire.RapidBeat{From: 3, ConfigSeq: 1, Inc: 1, Beat: 9, Pad: 166}),
		wire.Encode(&wire.Gossip{From: 3, Pad: 20}), // a tail as long as the bytes
		wire.Encode(&wire.Gossip{From: 3, Entries: []wire.GossipEntry{{Counter: 9, Info: info}, {Counter: 2, Info: membership.MemberInfo{Node: 4}}}, Pad: 280}),
		wire.Encode(&wire.SyncRequest{From: 3}), // no tail: the same bytes either way
	}
	var cancelled, cutAtBytes, cutAtEnd, accepted, rejected int
	for seed := int64(1); seed <= 4000; seed++ {
		for _, p := range packets {
			modelled, carried := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			own := bytes.Clone(p)
			pkt := Packet{Payload: own, buf: &sendBuf{b: own, tail: wire.Padding(p)}}
			ref := materialise(p)
			op := seed%3 + 1 // 1 corrupts, 2 cuts, 3 does both
			if op&1 != 0 {
				pkt.corrupt(modelled)
				var hits int
				ref, hits = corruptCarried(carried, ref, len(p))
				if hits > 0 && !slices.ContainsFunc(ref[len(p):], func(b byte) bool { return b != 0 }) {
					cancelled++
				}
			}
			if op&2 != 0 {
				pkt.truncate(modelled)
				k := carried.Intn(len(ref) + 1)
				if len(ref) > len(p) {
					cutAtBytes += b2i(k == len(p))
					cutAtEnd += b2i(k == len(ref))
				}
				ref = ref[:k]
			}
			_, err := wire.Decode(pkt.Payload)
			ok := carriedAccepts(ref)
			if (err == nil) != ok || pkt.WireSize() != len(ref)+UDPOverhead {
				t.Fatalf("seed %d, %v packet, op %d: modelled verdict %v size %d, carried verdict %v size %d",
					seed, wire.Type(p[3]), op, err == nil, pkt.WireSize(), ok, len(ref)+UDPOverhead)
			}
			if wire.Padding(p) == 0 && !bytes.Equal(pkt.Payload, ref) {
				t.Fatalf("seed %d, op %d: an unpadded packet's faults differ from the carried ones", seed, op)
			}
			if a, b := modelled.Int63(), carried.Int63(); a != b {
				t.Fatalf("seed %d, %v packet, op %d: next draw %d, carried %d", seed, wire.Type(p[3]), op, a, b)
			}
			accepted += b2i(ok)
			rejected += b2i(!ok)
		}
	}
	if cancelled == 0 || cutAtBytes == 0 || cutAtEnd == 0 || accepted == 0 || rejected == 0 {
		t.Fatalf("cases not reached: %d cancelled tail flips, %d cuts after the bytes, %d at the end; %d accepted, %d rejected",
			cancelled, cutAtBytes, cutAtEnd, accepted, rejected)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tailScript is a seeded run of padded traffic over the byte-fault links: one
// link profile per phase, and sends of heartbeats (multicast) and of gossip
// views and sync requests (unicast), a third of them to a profiled host.
type tailScript struct {
	profiles []LinkProfile
	sends    []tailSend
}

type tailSend struct {
	at       time.Duration
	src, dst topology.HostID // dst is NoHost for a multicast on ch
	ch       ChannelID
	ttl      int
	payload  []byte
}

func genTailScript(seed int64) tailScript {
	r := rand.New(rand.NewSource(seed))
	var s tailScript
	pick := func(p float64) float64 {
		if r.Intn(4) == 0 {
			return 0
		}
		return p
	}
	info := func() membership.MemberInfo {
		return membership.MemberInfo{Node: membership.NodeID(r.Intn(scriptHosts)), Incarnation: uint32(1 + r.Intn(3)), Beat: uint64(r.Intn(1000))}
	}
	for phase := 0; phase < scriptPhases; phase++ {
		s.profiles = append(s.profiles, LinkProfile{Corrupt: pick(0.5), Truncate: pick(0.5), Replay: pick(0.3), Stale: pick(0.3)})
		start := time.Duration(phase*scriptPhaseLen) * scriptGrid
		for n := 20 + r.Intn(20); n > 0; n-- {
			snd := tailSend{at: start + time.Duration(r.Intn(scriptPhaseLen))*scriptGrid, src: topology.HostID(r.Intn(scriptHosts)), dst: topology.NoHost}
			switch k := r.Intn(10); {
			case k < 5:
				snd.ch, snd.ttl = ChannelID(1+r.Intn(2)), 1+r.Intn(2)
				pad := []uint16{0, 1, 2, 144}[r.Intn(4)]
				snd.payload = wire.Encode(&wire.Heartbeat{Info: info(), Backup: membership.NoNode, Seq: uint64(r.Intn(1000)), Pad: pad})
			case k < 9:
				g := &wire.Gossip{From: membership.NodeID(snd.src)}
				for i := r.Intn(4); i > 0; i-- {
					g.Entries = append(g.Entries, wire.GossipEntry{Info: info()})
				}
				g.Pad = uint32(140 * len(g.Entries))
				snd.payload = wire.Encode(g)
			default:
				snd.payload = wire.Encode(&wire.SyncRequest{From: membership.NodeID(snd.src)})
			}
			if snd.ch == 0 {
				snd.dst = topology.HostID(r.Intn(scriptHosts))
				if r.Intn(3) == 0 {
					snd.dst = scriptProfiled[r.Intn(len(scriptProfiled))]
				}
			}
			s.sends = append(s.sends, snd)
		}
	}
	return s
}

// ops renders the script for one world: with materialised payloads for the
// carried-tail reference, as encoded for the modelled run.
func (s tailScript) ops(materialised bool) script {
	var out script
	for i, p := range s.profiles {
		out.globalOps = append(out.globalOps, op{at: time.Duration(i*scriptPhaseLen) * scriptGrid, do: func(w *world, _ *Endpoint) {
			for _, h := range scriptProfiled {
				w.net.SetLinkProfile(w.hostDev(h), w.switchDev(int(h)/scriptPerGroup), p)
			}
		}})
	}
	for _, snd := range s.sends {
		payload := snd.payload
		if materialised {
			payload = materialise(payload)
		}
		o := op{at: snd.at, host: snd.src}
		if snd.dst == topology.NoHost {
			o.do = func(_ *world, ep *Endpoint) { ep.Multicast(snd.ch, snd.ttl, payload) }
		} else {
			o.do = func(_ *world, ep *Endpoint) { ep.Unicast(snd.dst, payload) }
		}
		out.hostOps = append(out.hostOps, o)
	}
	return out
}

// judge replaces every handler of w with one that logs, per delivery, the
// verdict accept gives, the packet's WireSize and the receiving engine's next
// draw.
func (w *world) judge(accept func(Packet) bool) {
	for h := topology.HostID(0); h < scriptHosts; h++ {
		ep := w.net.Endpoint(h)
		ep.SetHandler(func(pkt Packet) {
			verdict := fmt.Sprint(accept(pkt), pkt.WireSize(), ep.eng.Rand().Int63())
			w.logs[ep.lp] = append(w.logs[ep.lp], arrival{ep.eng.Now(), ep.id, pkt.Src, pkt.Dst, pkt.Channel, verdict})
		})
	}
}

// testTailScript runs each seeded script modelled and carried, serially and
// partitioned, and compares every delivery's verdict, size and next draw, and
// at the end every Stats, Steps and next draw.
func testTailScript(t *testing.T) {
	var injected Stats
	var accepted, rejected int
	for seed := int64(1); seed <= 4; seed++ {
		s := genTailScript(seed)
		for _, buckets := range []int{0, 4} {
			modelled := newWorld(seed, buckets, 0)
			modelled.judge(func(pkt Packet) bool {
				_, err := pkt.Decode()
				return err == nil
			})
			modelled.run(s.ops(false))
			carried := newWorld(seed, buckets, 0)
			carried.judge(func(pkt Packet) bool { return carriedAccepts(pkt.Payload) })
			carried.run(s.ops(true))
			got := modelled.outcome()
			diffOutcomes(t, fmt.Sprintf("seed %d, %d buckets, modelled vs carried tails", seed, buckets), got, carried.outcome())
			for _, st := range got.stats {
				injected.add(st)
			}
			for _, log := range got.logs {
				for _, a := range log {
					if strings.HasPrefix(a.payload, "true") {
						accepted++
					} else {
						rejected++
					}
				}
			}
		}
	}
	if injected.Corrupted == 0 || injected.Truncated == 0 || injected.Replayed == 0 || injected.Stale == 0 || accepted == 0 || rejected == 0 {
		t.Fatalf("scripts too quiet: injected %+v; %d deliveries accepted, %d rejected", injected, accepted, rejected)
	}
}
