package proxy

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestChunkLossRecoveredByNextSummary drops one chunk of a multi-chunk
// summary; the assembly must not install a torn summary, and the next
// periodic full summary repairs the view.
func TestChunkLossRecoveredByNextSummary(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 1)
	for _, p := range f.Proxies {
		p.chunkSize = 2
	}
	for i := 0; i < 6; i++ {
		f.Hosts[8].RT.Register(fmt.Sprintf("Svc%d", i), "0", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return nil, nil })
	}
	// Drop exactly one ProxySummary chunk arriving at the DC0 proxy.
	dc0proxy := f.Proxies[0].Host()
	dropped := 0
	f.net.Endpoint(dc0proxy).SetFilter(func(pkt netsim.Packet) bool {
		if dropped > 0 {
			return true
		}
		if m, err := wire.Decode(pkt.Payload); err == nil {
			if ps, ok := m.(*wire.ProxySummary); ok && ps.NChunks > 1 && ps.Chunk == 1 {
				dropped++
				return false
			}
		}
		return true
	})
	f.startAll()
	f.run(60 * time.Second)
	if dropped != 1 {
		t.Fatalf("filter dropped %d chunks, want 1", dropped)
	}
	l0 := f.leaderOf(0)
	if l0 == nil {
		t.Fatal("no DC0 leader")
	}
	for i := 0; i < 6; i++ {
		if _, ok := l0.RemoteSummary(1, fmt.Sprintf("Svc%d", i)); !ok {
			t.Fatalf("Svc%d missing after chunk loss + repair window", i)
		}
	}
}

// TestRepeatedSummaryChunkDoesNotTearTheSummary delivers chunk 0 of a
// two-chunk summary twice, as a duplicating or replaying link would, then
// chunk 1. The repeat must not count toward completing the summary: it
// installs once both chunk indices have arrived, carrying both chunks'
// services. A chunk outside its own count is rejected and changes nothing.
func TestRepeatedSummaryChunkDoesNotTearTheSummary(t *testing.T) {
	f := newDCFixture(t, 2, 1, 3, 1)
	f.startAll()
	f.run(15 * time.Second)
	l0 := f.leaderOf(0)
	if l0 == nil {
		t.Fatal("no DC0 leader")
	}
	deliver := func(m *wire.ProxySummary) {
		l0.onSummary(netsim.Packet{Src: 99, Dst: l0.Host(), Payload: wire.Encode(m)}, m)
	}
	chunk := func(seq uint64, i, n uint16, svc string) *wire.ProxySummary {
		return &wire.ProxySummary{DC: 1, Seq: seq, Chunk: i, NChunks: n, Entries: []wire.SummaryEntry{{Service: svc, Nodes: 1}}}
	}
	rejected := func() uint64 { return f.net.Endpoint(l0.Host()).Stats().Rejected }

	before := rejected()
	deliver(chunk(1000, 0, 2, "A"))
	deliver(chunk(1000, 0, 2, "A"))
	if got := rejected() - before; got != 1 {
		t.Errorf("the repeated chunk drew %d rejects, want 1", got)
	}
	if _, ok := l0.RemoteSummary(1, "A"); ok {
		t.Fatal("half a summary was installed: a repeated chunk counted toward its completion")
	}
	deliver(chunk(1000, 1, 2, "B"))
	for _, svc := range []string{"A", "B"} {
		if _, ok := l0.RemoteSummary(1, svc); !ok {
			t.Fatalf("%s missing after both chunks of the summary arrived", svc)
		}
	}

	before = rejected()
	deliver(chunk(1001, 0, 0, "C"))
	deliver(chunk(1002, 2, 2, "D"))
	if got := rejected() - before; got != 2 {
		t.Errorf("chunks outside their own count drew %d rejects, want 2", got)
	}
	deliver(chunk(1003, 0, 1, "E"))
	if _, ok := l0.RemoteSummary(1, "E"); !ok {
		t.Fatal("a well-formed summary after the malformed ones was not installed")
	}
}

// TestWANFlap partitions the WAN, lets summaries expire, heals it, and
// expects the remote view and cross-DC invocation to come back.
func TestWANFlap(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.Hosts[9].RT.Register("Retriever", "0", time.Millisecond,
		func(p int32, b []byte) ([]byte, error) { return []byte("ok"), nil })
	f.startAll()
	f.run(25 * time.Second)
	c0, _ := f.top.FindDevice("dc0-core")
	c1, _ := f.top.FindDevice("dc1-core")
	for flap := 0; flap < 2; flap++ {
		f.top.FailLink(c0.ID, c1.ID)
		f.run(30 * time.Second)
		l0 := f.leaderOf(0)
		if _, ok := l0.RemoteSummary(1, "Retriever"); ok {
			t.Fatalf("flap %d: remote summary survived the partition", flap)
		}
		f.top.RepairLink(c0.ID, c1.ID)
		f.run(30 * time.Second)
		if _, ok := l0.RemoteSummary(1, "Retriever"); !ok {
			t.Fatalf("flap %d: remote summary did not return after heal", flap)
		}
	}
	var gotErr error
	f.Hosts[3].RT.Invoke("Retriever", 0, nil, service.Func(func(b []byte, err error) { gotErr = err }), 0)
	f.run(2 * time.Second)
	if gotErr != nil {
		t.Fatalf("post-flap invocation failed: %v", gotErr)
	}
}

// TestStaleSummarySequenceIgnored feeds an old-sequence update after a
// newer one; the newer state must win.
func TestStaleSummarySequenceIgnored(t *testing.T) {
	f := newDCFixture(t, 2, 1, 3, 1)
	f.startAll()
	f.run(15 * time.Second)
	l0 := f.leaderOf(0)
	if l0 == nil {
		t.Fatal("no leader")
	}
	l0.onUpdate(netsim.Packet{Src: 99, Dst: 0}, &wire.ProxyUpdate{
		DC: 1, Seq: 100, Upserts: []wire.SummaryEntry{{Service: "New", Nodes: 2}},
	})
	l0.onUpdate(netsim.Packet{Src: 99, Dst: 0}, &wire.ProxyUpdate{
		DC: 1, Seq: 50, Removes: []string{"New"},
	})
	if _, ok := l0.RemoteSummary(1, "New"); !ok {
		t.Fatal("stale-sequence removal was applied")
	}
}

// TestUnknownDCIgnored ensures packets claiming an unconfigured data
// center are dropped without effect.
func TestUnknownDCIgnored(t *testing.T) {
	f := newDCFixture(t, 2, 1, 3, 1)
	f.startAll()
	f.run(15 * time.Second)
	l0 := f.leaderOf(0)
	l0.onSummary(netsim.Packet{Src: 99, Dst: 0}, &wire.ProxySummary{
		DC: 7, Seq: 1, NChunks: 1, Entries: []wire.SummaryEntry{{Service: "X", Nodes: 1}},
	})
	if _, ok := l0.RemoteSummary(7, "X"); ok {
		t.Fatal("summary for unknown DC stored")
	}
}

// TestProxyStopReleasesRelayDuties stops a proxy and verifies it no longer
// intercepts service packets (the runtime reverts to normal handling).
func TestProxyStopReleasesRelayDuties(t *testing.T) {
	f := newDCFixture(t, 2, 1, 3, 2)
	f.startAll()
	f.run(15 * time.Second)
	var target *Proxy
	for _, p := range f.Proxies {
		if p.dc == 0 {
			target = p
			break
		}
	}
	target.Stop()
	f.run(10 * time.Second)
	if target.IsLeader() {
		t.Fatal("stopped proxy still claims leadership")
	}
	// The DC still has exactly one leader (the other proxy).
	if f.leaderOf(0) == nil {
		t.Fatal("no replacement proxy leader")
	}
}

// TestReplayedLeaderBeatDoesNotDelayTakeover: the leader stops, and its last
// group heartbeat is delivered again (a replay ring, a stale link) inside
// the death horizon. Old packets must not fake liveness: the replay is
// rejected and counted, and the backup takes the VIP over as early as it
// would have without it.
func TestReplayedLeaderBeatDoesNotDelayTakeover(t *testing.T) {
	f := newDCFixture(t, 2, 2, 3, 2)
	f.startAll()
	f.run(25 * time.Second)
	old := f.leaderOf(0)
	var backup *Proxy
	for _, p := range f.Proxies {
		if p.dc == 0 && p != old {
			backup = p
		}
	}
	if old == nil || backup == nil || backup.IsLeader() {
		t.Fatal("DC0 did not settle on one leader and one backup")
	}
	lastBeat := &wire.Heartbeat{
		Info:   membership.MemberInfo{Node: old.ID()},
		Level:  255,
		Leader: true,
		Backup: membership.NoNode,
		Seq:    uint64(old.tick - 1),
	}
	f.Hosts[old.Host()].Node.Stop()
	old.Stop()

	f.run(4 * time.Second) // inside the 5 s death horizon
	before := f.net.Endpoint(backup.Host()).Stats().Rejected
	backup.handle(netsim.Packet{Src: old.Host(), Dst: topology.NoHost, Channel: proxyChannel, TTL: 1, Payload: wire.Encode(lastBeat)}, lastBeat)
	if got := f.net.Endpoint(backup.Host()).Stats().Rejected - before; got != 1 {
		t.Errorf("the replayed beat drew %d rejects, want 1", got)
	}

	f.run(3 * time.Second) // 7 s after the stop: one horizon plus two beats
	if addr, _ := f.VIP.Get(0); !backup.IsLeader() || addr != backup.Host() {
		t.Fatalf("7 s after the leader stopped the backup leads = %v and the VIP is at %v, want %v", backup.IsLeader(), addr, backup.Host())
	}
}
