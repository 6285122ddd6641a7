// Package micro holds one isolated loop per ledger layer, each over a public
// entry point that has no benchmark of its own in the repository: the
// schemes' Receive, directory upsert and lookup, multicast fan-out, the
// engine's schedule/fire pair, directory and gossip decoding, and cluster
// construction. The traced benchmark run reports them as the minimum of ten
// batches; `go test -bench . ./micro` runs the same loops under the testing
// package.
package micro

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/alltoall"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/harness"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/rapid"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Bench is one microbenchmark.
type Bench struct {
	// Name is the ledger metric without its unit suffix, e.g.
	// "wire.decode_heartbeat" for wire.decode_heartbeat_ns.
	Name string
	// Unit of the reported time per operation: "ns", "us" or "ms".
	Unit string
	// Allocs additionally reports heap allocations per operation.
	Allocs bool
	// N is the number of calls per batch; Per is how many operations one
	// call performs (a multicast delivers Per copies).
	N, Per int
	// Make builds the benchmark's state and returns the call to time. The
	// call receives a counter that keeps rising across batches, for loops
	// whose input must be fresh every time.
	Make func(total int) func(i int)
}

// Batches is how many times each loop runs in a benchmark run; the minimum
// is reported, which on a shared box is the batch the other tenants
// disturbed least.
const Batches = 10

// Run times the benchmark over the given number of batches and returns the
// best batch's time per operation in Unit and allocations per operation.
func (b Bench) Run(batches int) (perOp, allocs float64) {
	call := b.Make(b.N * batches)
	per := b.Per
	if per < 1 {
		per = 1
	}
	best, bestAllocs := time.Duration(1<<62), ^uint64(0)
	var m0, m1 runtime.MemStats
	for batch := 0; batch < batches; batch++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := batch * b.N; i < (batch+1)*b.N; i++ {
			call(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if d < best {
			best = d
		}
		if a := m1.Mallocs - m0.Mallocs; a < bestAllocs {
			bestAllocs = a
		}
	}
	ops := float64(b.N * per)
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[b.Unit]
	return float64(best) / ops / scale, float64(bestAllocs) / ops
}

// pad brings a membership record to the paper's measured 228 bytes on the
// wire, as the harness does for every scheme.
func pad(sample wire.Message) int {
	p := harness.HeartbeatWireTarget - netsim.UDPOverhead - len(wire.Encode(sample))
	if p < 0 {
		p = 0
	}
	return p
}

// HeartbeatPad is the padding that brings a default heartbeat to 228 bytes
// (what harness.NewCluster configures; the benchmark's own clusters use it
// too).
func HeartbeatPad() int {
	return pad(&wire.Heartbeat{Info: membership.MemberInfo{Incarnation: 1}, Backup: membership.NoNode})
}

func heartbeat(from membership.NodeID, seq uint64) *wire.Heartbeat {
	return &wire.Heartbeat{
		Info:   membership.MemberInfo{Node: from, Incarnation: 1, Beat: seq},
		Backup: membership.NoNode,
		Seq:    seq,
		Pad:    uint16(HeartbeatPad()),
	}
}

func infos(n int) []membership.MemberInfo {
	out := make([]membership.MemberInfo, n)
	for i := range out {
		out[i] = membership.MemberInfo{Node: membership.NodeID(i), Incarnation: 1, Beat: 7}
	}
	return out
}

func gossipMsg(n int, counter uint64) *wire.Gossip {
	entryPad := pad(&wire.Gossip{Entries: []wire.GossipEntry{{Info: membership.MemberInfo{Incarnation: 1}}}})
	g := &wire.Gossip{From: 1, Pad: uint32(n * entryPad)}
	for _, info := range infos(n) {
		info.Beat = counter
		g.Entries = append(g.Entries, wire.GossipEntry{Counter: counter, Info: info})
	}
	return g
}

// decode returns a loop that parses one pre-encoded message.
func decode(m wire.Message) func(int) func(int) {
	return func(int) func(int) {
		buf := wire.Encode(m)
		return func(int) {
			if _, err := wire.Decode(buf); err != nil {
				panic(err)
			}
		}
	}
}

// encode returns a loop that serialises m into a reused buffer.
func encode(m wire.Message) func(int) func(int) {
	return func(int) func(int) {
		var enc wire.Encoder
		buf := make([]byte, 0, 1<<17)
		return func(int) { buf = enc.AppendEncode(buf[:0], m) }
	}
}

// daemon is the surface of a scheme's node the receive loops drive.
type daemon interface {
	Start(*sim.Engine)
	Receive(netsim.Packet)
}

// receiver starts one daemon of a 20-host group on an engine that never
// runs: the loops call Receive directly, as the network would.
func receiver[N daemon](build func(netsim.Transport) N) (N, *netsim.Endpoint) {
	eng := sim.NewEngine(1)
	ep := netsim.New(eng, topology.Clustered(1, 20)).Endpoint(0)
	n := build(ep)
	n.Start(eng)
	return n, ep
}

// receiveLoop hands the daemon one pre-encoded message per call, so the loop
// times decoding and handling but not encoding. After the last call it
// insists that the daemon rejected none of them: a loop whose packets all
// died in the replay guard would time the guard, not the receive path.
func receiveLoop(n daemon, ep *netsim.Endpoint, total int, pkt netsim.Packet, msg func(i int) wire.Message) func(int) {
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = wire.Encode(msg(i))
	}
	return func(i int) {
		pkt.Payload = payloads[i]
		n.Receive(pkt)
		if i == total-1 && ep.Stats().Rejected > 0 {
			panic(fmt.Sprintf("micro: the daemon rejected %d of %d packets", ep.Stats().Rejected, total))
		}
	}
}

func multicast(groups, perGroup int) func(int) func(int) {
	return func(int) func(int) {
		eng := sim.NewEngine(1)
		top := topology.Clustered(groups, perGroup)
		net := netsim.New(eng, top)
		for h := 0; h < top.NumHosts(); h++ {
			ep := net.Endpoint(topology.HostID(h))
			ep.Join(3)
			ep.SetHandler(func(netsim.Packet) {})
		}
		payload := wire.Encode(heartbeat(0, 1))
		ttl := top.Diameter()
		return func(int) {
			net.Endpoint(0).Multicast(3, ttl, payload)
			eng.RunAll()
		}
	}
}

func newCluster(groups, perGroup int) func(int) func(int) {
	return func(int) func(int) {
		return func(i int) {
			harness.NewCluster(harness.Hierarchical, topology.Clustered(groups, perGroup), int64(i))
		}
	}
}

// All lists the microbenchmarks in ledger order.
var All = []Bench{
	{Name: "sim.schedule_fire", Unit: "ns", Allocs: true, N: 200000, Make: func(int) func(int) {
		eng := sim.NewEngine(1)
		nop := func() {}
		for i := 0; i < 1024; i++ { // a warm queue, as in a running simulation
			eng.Schedule(time.Duration(i)*time.Microsecond, nop)
		}
		return func(int) {
			eng.Schedule(time.Millisecond, nop)
			eng.Step()
		}
	}},
	{Name: "netsim.mcast20", Unit: "ns", N: 5000, Per: 19, Make: multicast(1, 20)},
	{Name: "netsim.mcast400", Unit: "ns", N: 250, Per: 399, Make: multicast(20, 20)},

	{Name: "wire.encode_heartbeat", Unit: "ns", N: 100000, Make: encode(heartbeat(1, 7))},
	{Name: "wire.decode_heartbeat", Unit: "ns", N: 100000, Make: decode(heartbeat(1, 7))},
	{Name: "wire.decode_update", Unit: "ns", N: 50000, Make: decode(updateMsg(10))},
	{Name: "wire.decode_directory1000", Unit: "ns", Allocs: true, N: 50, Make: decode(&wire.DirectoryMsg{From: 1, Infos: infos(1000)})},
	{Name: "wire.encode_gossip400", Unit: "ns", N: 200, Make: encode(gossipMsg(400, 7))},
	{Name: "wire.decode_gossip400", Unit: "ns", Allocs: true, N: 100, Make: decode(gossipMsg(400, 7))},

	{Name: "core.receive_heartbeat", Unit: "ns", N: 20000, Make: func(total int) func(int) {
		cfg := core.DefaultConfig()
		n, ep := receiver(func(ep netsim.Transport) *core.Node { return core.NewNode(cfg, ep) })
		return receiveLoop(n, ep, total, netsim.Packet{Src: 1, Dst: topology.NoHost, Channel: cfg.BaseChannel, TTL: 1},
			func(i int) wire.Message { return heartbeat(1, uint64(i+1)) })
	}},
	{Name: "core.receive_update", Unit: "ns", N: 10000, Make: func(total int) func(int) {
		cfg := core.DefaultConfig()
		n, ep := receiver(func(ep netsim.Transport) *core.Node { return core.NewNode(cfg, ep) })
		return receiveLoop(n, ep, total, netsim.Packet{Src: 1, Dst: topology.NoHost, Channel: cfg.BaseChannel, TTL: 1},
			func(i int) wire.Message { return updateMsg(i) })
	}},
	{Name: "alltoall.receive_heartbeat", Unit: "ns", N: 20000, Make: func(total int) func(int) {
		cfg := alltoall.DefaultConfig()
		n, ep := receiver(func(ep netsim.Transport) *alltoall.Node { return alltoall.NewNode(cfg, ep) })
		return receiveLoop(n, ep, total, netsim.Packet{Src: 1, Dst: topology.NoHost, Channel: cfg.Channel, TTL: cfg.TTL},
			func(i int) wire.Message { return heartbeat(1, uint64(i+1)) })
	}},
	{Name: "gossip.receive_gossip400", Unit: "ns", N: 30, Make: func(total int) func(int) {
		n, ep := receiver(func(ep netsim.Transport) *gossip.Node { return gossip.NewNode(gossip.DefaultConfig(), ep) })
		return receiveLoop(n, ep, total, netsim.Packet{Src: 1, Dst: 0},
			func(i int) wire.Message { return gossipMsg(400, uint64(i+1)) })
	}},
	{Name: "rapid.receive_beat", Unit: "ns", N: 20000, Make: func(total int) func(int) {
		cfg := rapid.DefaultConfig()
		for h := 0; h < 20; h++ {
			cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
		}
		n, ep := receiver(func(ep netsim.Transport) *rapid.Node { return rapid.NewNode(cfg, ep) })
		return receiveLoop(n, ep, total, netsim.Packet{Src: 1, Dst: 0},
			func(i int) wire.Message {
				return &wire.RapidBeat{From: 1, ConfigSeq: n.ConfigSeq(), Inc: 1, Beat: uint64(i + 1)}
			})
	}},

	{Name: "membership.upsert", Unit: "ns", N: 100000, Make: func(int) func(int) {
		d := membership.NewDirectory(0)
		all := infos(1000)
		for _, info := range all {
			d.Upsert(info, membership.OriginRelayed, 1, 1, 0)
		}
		return func(i int) { // the steady-state write: a known member's beat advances
			info := all[i%len(all)]
			info.Beat = uint64(8 + i)
			d.Upsert(info, membership.OriginRelayed, 1, 1, time.Duration(i))
		}
	}},
	{Name: "membership.lookup", Unit: "ns", N: 5000, Make: func(int) func(int) {
		d := membership.NewDirectory(0)
		for i, info := range infos(24) {
			info.Services = []membership.ServiceDecl{{Name: "app", Partitions: []int32{int32(i % 8)}}}
			d.Upsert(info, membership.OriginRelayed, 1, 1, 0)
		}
		return func(i int) { // the read a session gateway does: regex name, one partition
			if m, err := d.Lookup("app", fmt.Sprint(i%8)); err != nil || len(m) != 3 {
				panic(fmt.Sprintf("lookup: %d matches, %v", len(m), err))
			}
		}
	}},

	{Name: "topology.clustered1000", Unit: "ms", N: 1, Make: func(int) func(int) {
		return func(int) {
			top := topology.Clustered(50, 20)
			top.Diameter()
			top.LPPartition()
		}
	}},
	{Name: "harness.newcluster1000", Unit: "ms", N: 1, Make: newCluster(50, 20)},
	{Name: "harness.newcluster24", Unit: "us", N: 20, Make: newCluster(3, 8)},
}

// updateMsg is what a group member hears when a leader relays change i
// about a remote node: one new update plus three it has already seen.
func updateMsg(i int) *wire.UpdateMsg {
	m := &wire.UpdateMsg{Sender: 1, Seq: uint64(i + 1)}
	for back := 0; back < 4 && back <= i; back++ {
		c := i - back
		m.Updates = append(m.Updates, wire.Update{
			ID:      wire.UpdateID{Origin: 1, Counter: uint32(c + 1)},
			Kind:    wire.UChange,
			Subject: 500,
			Info:    membership.MemberInfo{Node: 500, Incarnation: 1, Version: uint64(c + 1)},
		})
	}
	return m
}
