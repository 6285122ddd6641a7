package alltoall

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestReplayFromExpiredMemberRejected: once a member has been expired, a
// replay of anything it ever sent is rejected, counted, and does not put it
// back in the directory — the marks outlive the entry. Genuinely newer
// evidence still readmits it.
func TestReplayFromExpiredMemberRejected(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dInc, dBeat int // offset from the last pair the victim sent
		accepted    bool
	}{
		{"last heartbeat again", 0, 0, false},
		{"an older beat", 0, -3, false},
		{"an older incarnation with a later beat", -1, +100, false},
		{"the next beat", 0, +1, true},
		{"a restart", +1, -3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, net, nodes := newCluster(topology.FlatLAN(4))
			for _, n := range nodes {
				n.Start(eng)
			}
			nodes[2].Stop() // bring the victim to its second incarnation
			nodes[2].Start(eng)
			eng.Run(5 * time.Second)
			nodes[2].Stop()
			eng.Run(eng.Now() + 10*time.Second)
			if nodes[0].Directory().Has(2) {
				t.Fatal("the stopped node was not expired")
			}
			last := nodes[2].info
			before := net.Endpoint(0).Stats().Rejected
			nodes[0].Receive(netsim.Packet{Src: 2, Dst: topology.NoHost, Channel: nodes[0].cfg.Channel, Payload: wire.Encode(&wire.Heartbeat{
				Info: membership.MemberInfo{
					Node:        2,
					Incarnation: uint32(int(last.Incarnation) + tc.dInc),
					Beat:        uint64(int(last.Beat) + tc.dBeat),
				},
				Backup: membership.NoNode,
			})})
			rejects := net.Endpoint(0).Stats().Rejected - before
			if present := nodes[0].Directory().Has(2); present != tc.accepted || (rejects == 0) != tc.accepted {
				t.Fatalf("present = %v with %d rejects, want accepted = %v", present, rejects, tc.accepted)
			}
		})
	}
}

// dirEvent is one directory change as one holder saw it.
type dirEvent struct {
	holder membership.NodeID
	membership.Event
}

// TestSweepSkipRemovesOnTheSameTicks runs seeded kill/restart histories
// twice — once as shipped, once with every node's tracker forgetting
// sweepDue before each tick, which is the every-tick sweep the skip replaced
// — and wants the same joins and removals at the same holders at the same
// instants.
func TestSweepSkipRemovesOnTheSameTicks(t *testing.T) {
	history := func(seed int64, everyTick bool) (log []dirEvent, skipping int) {
		eng, net, nodes := newCluster(topology.FlatLAN(12))
		net.SetLossProbability(0.2) // refreshes arrive irregularly, so deadlines spread
		start := func(n *Node) {
			n.Start(eng)
			if everyTick {
				half := heartbeatInterval / 2
				n.tracker.Stop()
				n.tracker = sim.NewTicker(eng, half, half, func() { n.sweepDue = 0; n.track() })
			}
		}
		for _, n := range nodes {
			n := n
			n.Directory().AddObserver(func(e membership.Event) { log = append(log, dirEvent{n.ID(), e}) })
			start(n)
		}
		rng := rand.New(rand.NewSource(seed))
		for eng.Now() < 90*time.Second {
			eng.Run(eng.Now() + time.Duration(300+rng.Intn(3000))*time.Millisecond)
			if n := nodes[rng.Intn(len(nodes))]; n.Running() {
				n.Stop()
			} else {
				start(n)
			}
		}
		for _, n := range nodes {
			if n.Running() && n.sweepDue > eng.Now() {
				skipping++
			}
		}
		return log, skipping
	}
	for seed := int64(1); seed <= 6; seed++ {
		got, skipping := history(seed, false)
		want, _ := history(seed, true)
		if skipping == 0 {
			t.Fatalf("seed %d: no running node is skipping sweeps; the comparison is vacuous", seed)
		}
		leaves := 0
		for _, e := range want {
			if e.Type == membership.EventLeave {
				leaves++
			}
		}
		if leaves < 50 {
			t.Fatalf("seed %d: only %d removals in the history", seed, leaves)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: event %d differs: skip %+v, every-tick %+v", seed, i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: %d events with the skip, %d without", seed, len(got), len(want))
		}
	}
}

// receive400 is a 400-node flat cluster whose deliveries are captured
// instead of handled: step hands the next captured heartbeat to its
// receiver. Heartbeats arrive as in the running system — one sender's
// multicast at all 399 receivers, then the next sender's — so every receive
// finds the receiver's state for that sender cache-cold; a single-sender
// loop keeps one mark and one entry in L1 and hides that cost. The capture
// keeps each copy's heartbeat as the network decoded it, once per multicast
// through its send buffer (a copy of the message: the buffer and its decode
// are recycled once the multicast's deliveries are done), so step is the
// scheme's own work on it: the replay guard and the directory refresh.
type receive400 struct {
	eng     *sim.Engine
	nodes   []*Node
	pending []captured
	next    int
}

type captured struct {
	to int
	hb wire.Heartbeat
}

func newReceive400(tb testing.TB) *receive400 {
	top := topology.Clustered(20, 20)
	eng := sim.NewEngine(1)
	net := netsim.New(eng, top)
	cfg := DefaultConfig()
	cfg.TTL = top.Diameter()
	f := &receive400{eng: eng}
	for h := 0; h < top.NumHosts(); h++ {
		h := h
		ep := net.Endpoint(topology.HostID(h))
		f.nodes = append(f.nodes, NewNode(cfg, ep))
		// NewNode claims the endpoint; the capture replaces its handler, as
		// a runtime layered over the node would.
		ep.SetHandler(func(pkt netsim.Packet) {
			msg, err := pkt.Decode()
			if err != nil {
				tb.Fatal(err)
			}
			f.pending = append(f.pending, captured{h, *msg.(*wire.Heartbeat)})
		})
		f.nodes[h].Start(eng)
	}
	// Two heartbeat periods, so every directory holds every member (a beat
	// sent at the end of the first is delivered in the second).
	for round := 0; round < 2; round++ {
		for f.refill(); f.next < len(f.pending); {
			f.step()
		}
	}
	for _, n := range f.nodes {
		if n.Directory().Len() != 400 {
			tb.Fatalf("node %v warmed up to %d members, want 400", n.ID(), n.Directory().Len())
		}
	}
	return f
}

// refill runs the cluster for one heartbeat period, capturing every node's
// next beat at every other node.
func (f *receive400) refill() {
	f.pending, f.next = f.pending[:0], 0
	f.eng.Run(f.eng.Now() + heartbeatInterval)
}

func (f *receive400) step() {
	c := &f.pending[f.next]
	f.next++
	f.nodes[c.to].onHeartbeat(&c.hb)
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
	ep := &capturingTransport{Transport: netsim.New(eng, topology.FlatLAN(2)).Endpoint(0)}
	n := NewNode(cfg, ep)
	n.Start(eng)
	n.sendHeartbeat()
	allocs := testing.AllocsPerRun(100, n.sendHeartbeat)
	if b := ep.last; allocs != 0 || len(b) > 64 || len(b)+wire.Padding(b)+netsim.UDPOverhead != 228 {
		t.Fatalf("a heartbeat send allocates %v times and frames %d bytes modelled at %d, want none and at most 64 modelled at 228",
			allocs, len(b), len(b)+wire.Padding(b)+netsim.UDPOverhead)
	}
}

func BenchmarkAlltoallReceive400(b *testing.B) {
	f := newReceive400(b)
	f.refill()
	if allocs := testing.AllocsPerRun(1000, f.step); allocs != 0 {
		b.Fatalf("receiving a known member's heartbeat allocates %.1f per packet, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.next == len(f.pending) {
			b.StopTimer()
			f.refill()
			b.StartTimer()
		}
		f.step()
	}
	b.StopTimer()
	var rejected uint64
	for _, n := range f.nodes {
		rejected += n.ep.(*netsim.Endpoint).Stats().Rejected
	}
	if rejected != 0 {
		b.Fatalf("%d heartbeats died in the replay guard; the loop timed the guard, not the receive path", rejected)
	}
}
