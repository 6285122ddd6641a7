package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/raceflag"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// republishFixture is a started node whose directory already holds the
// 1000 plain records of a leader's snapshot, the snapshot's packet, and its
// decoded view — what the packet's send buffer hands each of its receivers.
type republishFixture struct {
	n       *Node
	payload []byte
	view    *wire.DirectoryView
}

func newRepublishFixture(tb testing.TB) *republishFixture {
	eng := sim.NewEngine(1)
	n := NewNode(DefaultConfig(), netsim.New(eng, topology.Clustered(1, 20)).Endpoint(0))
	n.Start(eng)
	infos := make([]membership.MemberInfo, 1000)
	for i := range infos {
		infos[i] = membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}
	}
	f := &republishFixture{n: n, payload: wire.Encode(&wire.DirectoryMsg{From: 1, Infos: infos})}
	m, err := wire.Decode(f.payload)
	if err != nil {
		tb.Fatal(err)
	}
	f.view = m.(*wire.DirectoryView)
	n.onDirectoryMsg(0, f.view)
	if n.dir.Len() != 1000 {
		tb.Fatalf("warm-up left %d entries, want 1000", n.dir.Len())
	}
	return f
}

// receive delivers the snapshot again with every record's beat moved to
// beat, the steady state of anti-entropy. The fixture owns the packet and
// is its only receiver, so it may do what the view's contract forbids
// everyone else: rewrite the beats in the bytes under the view rather than
// encode and decode a fresh packet per round.
func (f *republishFixture) receive(beat uint64) {
	const first = wire.HeaderLen + 4 + 1 + 4 // from, ask, count
	stride := (len(f.payload) - first) / 1000
	for off := first + wire.InfoPrefixLen - 8; off < len(f.payload); off += stride {
		binary.LittleEndian.PutUint64(f.payload[off:], beat)
	}
	f.n.onDirectoryMsg(0, f.view)
}

func TestReceiveDirectorySteadyStateDoesNotAllocate(t *testing.T) {
	f := newRepublishFixture(t)
	beat := uint64(8)
	allocs := testing.AllocsPerRun(50, func() {
		f.receive(beat)
		beat++
	})
	if allocs != 0 {
		t.Fatalf("receiving a 1000-record republish allocates %.1f per packet, want 0", allocs)
	}
	if e := f.n.dir.Get(999); e.Beat != beat-1 || e.Relayer != 1 || e.Origin != membership.OriginRelayed {
		t.Fatalf("the republishes were not merged: %+v", *e)
	}
}

// BenchmarkReceiveDirectory1000 is what one receiver pays for one leader's
// republication at N=1000 once the packet is decoded (the decode is shared
// per LP; wire.BenchmarkDecodeDirectory1000 times it).
func BenchmarkReceiveDirectory1000(b *testing.B) {
	f := newRepublishFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.receive(uint64(8 + i))
	}
}

// reseal gives a tampered packet a valid checksum again, so that the body
// walk is what has to reject it.
func reseal(b []byte) []byte {
	if len(b) >= wire.HeaderLen {
		binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[wire.HeaderLen:], crc32.MakeTable(crc32.Castagnoli)))
	}
	return b
}

// TestDamagedDirectoryAppliesNothing: a snapshot cut short anywhere, or with
// any byte turned into a hostile count or length, is rejected whole — no
// record before the damage reaches the directory — and the rejection is
// counted.
func TestDamagedDirectoryAppliesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(DefaultConfig(), netsim.New(eng, topology.Clustered(1, 20)).Endpoint(0))
	n.Start(eng)
	var events int
	n.dir.AddObserver(func(membership.Event) { events++ })
	good := wire.Encode(&wire.DirectoryMsg{From: 1, Ask: true, Infos: []membership.MemberInfo{
		{Node: 5, Incarnation: 1, Beat: 3},
		{Node: 6, Incarnation: 1, Services: []membership.ServiceDecl{{Name: "idx", Partitions: []int32{1, 2}}}, Attrs: []membership.KV{{Key: "mem", Value: "2G"}}},
		{Node: 7, Incarnation: 2},
	}})
	var damaged [][]byte
	for cut := wire.HeaderLen; cut < len(good); cut++ {
		damaged = append(damaged, reseal(append([]byte(nil), good[:cut]...)))
	}
	for off := wire.HeaderLen; off < len(good); off++ {
		b := append([]byte(nil), good...)
		b[off] = 0xFF
		damaged = append(damaged, reseal(b))
	}
	rejected := 0
	for _, b := range damaged {
		if _, err := wire.Decode(b); err == nil {
			continue // the overwrite landed on a value, not on structure
		}
		rejected++
		n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: b})
		if n.dir.Len() != 1 || events != 0 {
			t.Fatalf("rejected snapshot %x changed the directory: Len %d, %d events", b, n.dir.Len(), events)
		}
	}
	if rejected < len(good)-wire.HeaderLen || n.Stats().PacketsRejected != uint64(rejected) {
		t.Fatalf("%d damaged snapshots rejected by Decode, node counted %d", rejected, n.Stats().PacketsRejected)
	}
	n.Receive(netsim.Packet{Src: 1, Dst: 0, Payload: good})
	if n.dir.Len() != 4 || events != 3 {
		t.Fatalf("the intact snapshot left Len %d after %d events, want 4 and 3", n.dir.Len(), events)
	}
}

// recordingTransport notes every multicast a node sends, as a copy of its
// payload, since the node encodes its next packet into the same bytes. Once
// the network has its copy of a directory snapshot, it flips the snapshot's
// last byte in the node's buffer: a snapshot multicast again at the same
// instant that still carries the flip was not encoded again. It is noted as
// reused, and flipped back before it is copied and sent.
type recordingTransport struct {
	netsim.Transport
	eng    *sim.Engine
	sent   []sentPayload
	mark   *byte // the byte flipped after the last snapshot send
	markAt time.Duration
	was    byte // its value before the flip
}

func (r *recordingTransport) Multicast(ch netsim.ChannelID, ttl int, payload []byte) {
	now, last := r.eng.Now(), &payload[len(payload)-1]
	reused := last == r.mark && now == r.markAt && *last == ^r.was
	if reused {
		*last = r.was
	}
	r.sent = append(r.sent, sentPayload{at: now, ch: ch, payload: bytes.Clone(payload), reused: reused})
	r.Transport.Multicast(ch, ttl, payload)
	if r.mark = nil; wire.Type(payload[3]) == wire.TDirectory {
		r.mark, r.markAt, r.was = last, now, *last
		*last = ^r.was
	}
}

type sentPayload struct {
	at      time.Duration
	ch      netsim.ChannelID
	payload []byte
	reused  bool // the sender's bytes of the previous send, not encoded again
}

// capturingTransport keeps the last multicast payload and sends nothing, so
// what a send allocates is the sender's own.
type capturingTransport struct {
	netsim.Transport
	last []byte
}

func (c *capturingTransport) Multicast(_ netsim.ChannelID, _ int, payload []byte) { c.last = payload }

// TestHeartbeatFitsItsSizeClass: a heartbeat padded to the paper's 228 bytes
// declares its tail instead of carrying it, so a send frames at most 64 bytes,
// not 200, and allocates nothing: the node's send buffer is reused.
func TestHeartbeatFitsItsSizeClass(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.HeartbeatPad = 144
	ep := &capturingTransport{Transport: netsim.New(eng, topology.Clustered(1, 2)).Endpoint(0)}
	n := NewNode(cfg, ep)
	n.Start(eng)
	n.sendHeartbeat(0)
	allocs := testing.AllocsPerRun(100, func() { n.sendHeartbeat(0) })
	if b := ep.last; allocs != 0 || len(b) > 64 || len(b)+wire.Padding(b)+netsim.UDPOverhead != 228 {
		t.Fatalf("a heartbeat send allocates %v times and frames %d bytes modelled at %d, want none and at most 64 modelled at 228",
			allocs, len(b), len(b)+wire.Padding(b)+netsim.UDPOverhead)
	}
}

// TestSendCeilings: in the steady state a heartbeat, a 1000-entry
// republish and an originated update, each sent through the simulated
// network to a subscribed host, allocate nothing. Each is framed into the
// node's send buffer and copied into a network buffer that comes back to
// the free lists on arrival.
func TestSendCeilings(t *testing.T) {
	top := topology.Clustered(1, 2)
	eng := sim.NewEngine(1)
	net := netsim.New(eng, top)
	n := NewNode(cfgFor(top), net.Endpoint(0))
	n.Start(eng)
	net.Endpoint(1).Join(n.channelOf(0)) // a receiver with no daemon: the cost is the sender's
	for id := membership.NodeID(2); id <= 1000; id++ {
		n.dir.Upsert(membership.MemberInfo{Node: id, Incarnation: 1, Beat: 7}, membership.OriginRelayed, 0, 1, eng.Now())
	}
	for _, c := range []struct {
		name string
		send func()
		size uint64 // at least, on the receiver's wire
	}{
		{"a heartbeat", func() { n.sendHeartbeat(0) }, 50},
		{"a 1000-entry republish", func() { n.publishDirectory(0) }, 32000},
		{"an originated update", func() { n.originateUpdate(wire.ULeave, 5, membership.MemberInfo{}, -1) }, 20},
	} {
		round := func() {
			c.send()
			eng.Run(eng.Now() + time.Millisecond)
		}
		before := net.Endpoint(1).Stats()
		round()
		if got := net.Endpoint(1).Stats(); got.PktsRecv != before.PktsRecv+1 || got.BytesRecv-before.BytesRecv < c.size {
			t.Fatalf("%s: the receiver got %d packets of %d bytes, want one of at least %d",
				c.name, got.PktsRecv-before.PktsRecv, got.BytesRecv-before.BytesRecv, c.size)
		}
		// Under -race a sync.Pool drops some of what it is handed on purpose,
		// and the snapshot buffer comes from one.
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 && !raceflag.Enabled {
			t.Errorf("%s sent and delivered allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestRepublishEncodesOncePerTick: a leader joined to two channels
// republishes the same bytes — one encoding, one backing array — on both.
func TestRepublishEncodesOncePerTick(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng := sim.NewEngine(7)
	net := netsim.New(eng, top)
	cfg := cfgFor(top)
	rec := &recordingTransport{Transport: net.Endpoint(0), eng: eng}
	nodes := []*Node{NewNode(cfg, rec)}
	for h := 1; h < top.NumHosts(); h++ {
		nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(20 * time.Second)
	if !nodes[0].IsLeader(0) || len(nodes[0].Levels()) != 2 {
		t.Fatalf("node 0 leads level 0: %v, joined levels %v; the test needs a two-channel leader", nodes[0].IsLeader(0), nodes[0].Levels())
	}
	rec.sent = nil
	eng.Run(eng.Now() + 3*cfg.republishInterval())
	var snaps []sentPayload
	for _, s := range rec.sent {
		if wire.Type(s.payload[3]) == wire.TDirectory {
			snaps = append(snaps, s)
		}
	}
	if len(snaps) < 4 || len(snaps)%2 != 0 {
		t.Fatalf("%d snapshots multicast in three republish intervals, want a pair per tick", len(snaps))
	}
	for i := 0; i < len(snaps); i += 2 {
		a, b := snaps[i], snaps[i+1]
		if a.at != b.at || a.ch == b.ch || a.reused || !b.reused || !bytes.Equal(a.payload, b.payload) {
			t.Fatalf("tick at %v: snapshots on channels %d and %d at %v do not share one encoding", a.at, a.ch, b.ch, b.at)
		}
	}
}

// TestPublishedSnapshotCarriesOwnBeat: the record a leader publishes about
// itself carries the beat of its latest level-0 heartbeat. Its mates heard
// that beat directly; a snapshot offering them less (the beat the record was
// last written at, 0 from Start) regresses their entry once their tombstone
// for the leader has lapsed.
func TestPublishedSnapshotCarriesOwnBeat(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng := sim.NewEngine(7)
	net := netsim.New(eng, top)
	cfg := cfgFor(top)
	rec := &recordingTransport{Transport: net.Endpoint(0), eng: eng}
	nodes := []*Node{NewNode(cfg, rec)}
	for h := 1; h < top.NumHosts(); h++ {
		nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(20 * time.Second)
	var beats, snaps uint64
	for _, s := range rec.sent {
		switch m, _ := wire.Decode(s.payload); m := m.(type) {
		case *wire.Heartbeat:
			if m.Level == 0 {
				beats++
				if m.Info.Beat != beats {
					t.Fatalf("level-0 heartbeat %d carries beat %d", beats, m.Info.Beat)
				}
			}
		case *wire.DirectoryView:
			for c := m.Cursor(); c.Next(); {
				if p := c.Prefix(); p.Node == 0 {
					snaps++
					if p.Beat != beats {
						t.Fatalf("snapshot at %v, after %d heartbeats, carries the publisher at beat %d", s.at, beats, p.Beat)
					}
				}
			}
		}
	}
	if beats < 15 || snaps < 2 {
		t.Fatalf("%d heartbeats and %d snapshots in 20 s; the test needs both", beats, snaps)
	}
}
