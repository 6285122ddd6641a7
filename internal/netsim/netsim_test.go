package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

func newNet(t *testing.T, top *topology.Topology) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, top)
}

func TestMulticastScopedByTTL(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3)) // hosts 0-2, 3-5
	got := map[topology.HostID]int{}
	for h := topology.HostID(0); h < 6; h++ {
		h := h
		ep := n.Endpoint(h)
		ep.Join(7)
		ep.SetHandler(func(pkt Packet) { got[h]++ })
	}
	n.Endpoint(0).Multicast(7, 1, []byte("hello"))
	eng.RunAll()
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("same-switch hosts missed TTL1 multicast: %v", got)
	}
	if got[3] != 0 || got[4] != 0 || got[5] != 0 {
		t.Fatalf("TTL1 multicast leaked across router: %v", got)
	}
	if got[0] != 0 {
		t.Fatalf("sender received own multicast: %v", got)
	}
	n.Endpoint(0).Multicast(7, 2, []byte("hello"))
	eng.RunAll()
	for h := topology.HostID(1); h < 6; h++ {
		want := 2
		if h >= 3 {
			want = 1
		}
		if got[h] != want {
			t.Fatalf("after TTL2: got[%d] = %d, want %d (%v)", h, got[h], want, got)
		}
	}
}

func TestMulticastRequiresSubscription(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(3))
	recv := 0
	n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
	n.Endpoint(2).Join(9)
	n.Endpoint(2).SetHandler(func(pkt Packet) { recv += 100 })
	n.Endpoint(0).Multicast(9, 1, []byte("x"))
	eng.RunAll()
	if recv != 100 {
		t.Fatalf("recv = %d, want only subscribed host (100)", recv)
	}
	n.Endpoint(2).Leave(9)
	n.Endpoint(0).Multicast(9, 1, []byte("x"))
	eng.RunAll()
	if recv != 100 {
		t.Fatalf("recv = %d after Leave, want 100", recv)
	}
}

func TestUnicastLatencyAndDelivery(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 2))
	var at time.Duration = -1
	n.Endpoint(3).SetHandler(func(pkt Packet) {
		at = eng.Now()
		if pkt.Src != 0 || pkt.Dst != 3 || pkt.Multicast() {
			t.Errorf("bad packet metadata: %+v", pkt)
		}
	})
	if !n.Endpoint(0).Unicast(3, []byte("ping")) {
		t.Fatal("Unicast returned false on connected hosts")
	}
	eng.RunAll()
	want := n.Topology().UnicastLatency(0, 3)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestDownEndpointNeitherSendsNorReceives(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(3))
	recv := 0
	for _, h := range []topology.HostID{0, 1, 2} {
		n.Endpoint(h).Join(1)
		n.Endpoint(h).SetHandler(func(pkt Packet) { recv++ })
	}
	n.Endpoint(1).SetUp(false)
	n.Endpoint(0).Multicast(1, 1, []byte("x"))
	eng.RunAll()
	if recv != 1 {
		t.Fatalf("recv = %d, want 1 (only host 2)", recv)
	}
	n.Endpoint(1).Multicast(1, 1, []byte("x"))
	eng.RunAll()
	if recv != 1 {
		t.Fatalf("down endpoint sent a packet; recv = %d", recv)
	}
	if !n.Endpoint(1).Unicast(0, []byte("x")) == false {
		// Unicast from a down endpoint must report false.
		t.Fatal("Unicast from down endpoint returned true")
	}
}

func TestDownBetweenSendAndDelivery(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(2))
	recv := 0
	n.Endpoint(1).Join(1)
	n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
	n.Endpoint(0).Multicast(1, 1, []byte("x"))
	n.Endpoint(1).SetUp(false) // goes down before the packet lands
	eng.RunAll()
	if recv != 0 {
		t.Fatalf("packet delivered to endpoint that went down in flight")
	}
}

func TestLossModel(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(2))
	n.SetLossProbability(0.5)
	recv := 0
	n.Endpoint(1).Join(1)
	n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
	const total = 2000
	for i := 0; i < total; i++ {
		n.Endpoint(0).Multicast(1, 1, []byte("x"))
	}
	eng.RunAll()
	if recv < total/3 || recv > total*2/3 {
		t.Fatalf("recv = %d of %d with p=0.5; loss model broken", recv, total)
	}
	st := n.Endpoint(1).Stats()
	if st.Dropped != uint64(total-recv) {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, total-recv)
	}
}

func TestFilterVeto(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(2))
	recv := 0
	n.Endpoint(1).Join(1)
	n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
	n.Endpoint(1).SetFilter(func(pkt Packet) bool { return string(pkt.Payload) != "drop" })
	n.Endpoint(0).Multicast(1, 1, []byte("drop"))
	n.Endpoint(0).Multicast(1, 1, []byte("keep"))
	eng.RunAll()
	if recv != 1 {
		t.Fatalf("recv = %d, want 1", recv)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(3))
	for _, h := range []topology.HostID{0, 1, 2} {
		n.Endpoint(h).Join(1)
	}
	payload := make([]byte, 100)
	n.Endpoint(0).Multicast(1, 1, payload)
	eng.RunAll()
	s0 := n.Endpoint(0).Stats()
	if s0.PktsSent != 1 || s0.BytesSent != 128 {
		t.Fatalf("sender stats = %+v, want 1 pkt / 128 B", s0)
	}
	s1 := n.Endpoint(1).Stats()
	if s1.PktsRecv != 1 || s1.BytesRecv != 128 || s1.MulticastCopies != 1 {
		t.Fatalf("receiver stats = %+v", s1)
	}
	tot := n.TotalStats()
	if tot.PktsSent != 1 || tot.PktsRecv != 2 || tot.BytesRecv != 256 {
		t.Fatalf("total stats = %+v", tot)
	}
	n.ResetStats()
	if got := n.TotalStats(); got != (Stats{}) {
		t.Fatalf("stats after reset = %+v", got)
	}
}

// TestWANByteAccounting counts a unicast's bytes across data centers on its
// sender's LP: built serially and partitioned one LP per DC, the network
// delivers the same packets, reports the same WANBytes and 0 after
// ResetStats, which bench/perf calls on a partitioned network before every
// tree-churn region.
//
// Mutant: WANBytes reads only LP 0's counter.
// Mutant: ResetStats clears only LP 0's counter.
func TestWANByteAccounting(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		top := topology.MultiDC(2, 1, 2) // hosts 0,1 DC0; 2,3 DC1
		engs := []*sim.Engine{sim.NewEngine(1)}
		n := New(engs[0], top)
		if partitioned {
			part := top.LPPartition()
			if part.NumLPs() != 2 {
				t.Fatalf("partition has %d LPs, want one per DC", part.NumLPs())
			}
			engs = append(engs, sim.NewEngine(2))
			n.EnablePartition(part.LPOf, engs, 1)
		}
		recv := 0
		n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
		n.Endpoint(2).SetHandler(func(pkt Packet) { recv++ })
		n.Endpoint(0).Unicast(2, make([]byte, 72)) // 100 on wire
		n.Endpoint(0).Unicast(1, make([]byte, 72)) // intra-DC
		n.Endpoint(3).Unicast(1, make([]byte, 22)) // 50 on wire, on DC1's LP
		for _, eng := range engs {
			eng.RunAll()
		}
		if partitioned {
			n.DrainCross(0, 0)
			for _, eng := range engs {
				eng.RunAll()
			}
		}
		if recv != 3 || n.WANBytes() != 150 {
			t.Fatalf("partitioned %v: %d delivered, WANBytes = %d, want 3 and 150", partitioned, recv, n.WANBytes())
		}
		n.ResetStats()
		if n.WANBytes() != 0 || n.TotalStats() != (Stats{}) {
			t.Fatalf("partitioned %v: after ResetStats WANBytes = %d, stats %+v, want zero", partitioned, n.WANBytes(), n.TotalStats())
		}
	}
}

func TestLatencyJitterReorders(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 2))
	n.SetLatencyJitter(0.9)
	var order []int
	n.Endpoint(3).SetHandler(func(pkt Packet) {
		order = append(order, int(pkt.Payload[0]))
	})
	for i := 0; i < 200; i++ {
		n.Endpoint(0).Unicast(3, []byte{byte(i)})
	}
	eng.RunAll()
	if len(order) != 200 {
		t.Fatalf("delivered %d of 200", len(order))
	}
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("90%% jitter produced no reordering")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(2))
	n.SetDuplicateProbability(0.5)
	recv := 0
	n.Endpoint(1).Join(1)
	n.Endpoint(1).SetHandler(func(pkt Packet) { recv++ })
	const total = 1000
	for i := 0; i < total; i++ {
		n.Endpoint(0).Multicast(1, 1, []byte("x"))
	}
	eng.RunAll()
	if recv < total+total/3 || recv > total+total*2/3 {
		t.Fatalf("recv = %d for %d sends at p_dup=0.5", recv, total)
	}
}

func TestJitterValidation(t *testing.T) {
	_, n := newNet(t, topology.FlatLAN(2))
	for _, bad := range []float64{-0.1, 1.0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("jitter %v accepted", bad)
				}
			}()
			n.SetLatencyJitter(bad)
		}()
	}
}

func TestUnicastAcrossPartitionFails(t *testing.T) {
	_, n := newNet(t, topology.Clustered(2, 2))
	sw0, _ := n.Topology().FindDevice("sw0")
	n.Topology().FailDevice(sw0.ID)
	if n.Endpoint(0).Unicast(3, []byte("x")) {
		t.Fatal("Unicast across partition returned true")
	}
}

func TestMulticastAfterPartition(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 2))
	recv := map[topology.HostID]int{}
	for h := topology.HostID(0); h < 4; h++ {
		h := h
		n.Endpoint(h).Join(1)
		n.Endpoint(h).SetHandler(func(pkt Packet) { recv[h]++ })
	}
	core, _ := n.Topology().FindDevice("core")
	n.Topology().FailDevice(core.ID)
	n.Endpoint(0).Multicast(1, 2, []byte("x"))
	eng.RunAll()
	if recv[1] != 1 {
		t.Fatal("same-switch delivery broken by core failure")
	}
	if recv[2] != 0 || recv[3] != 0 {
		t.Fatalf("multicast crossed failed core router: %v", recv)
	}
}

func devID(t *testing.T, top *topology.Topology, name string) topology.DeviceID {
	t.Helper()
	d, ok := top.FindDevice(name)
	if !ok {
		t.Fatalf("no device named %q", name)
	}
	return d.ID
}

func TestLinkProfileLossOnlyOnMarkedPath(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3)) // group 0: hosts 0-2 on sw0, group 1: 3-5 on sw1
	got := map[topology.HostID]int{}
	for h := topology.HostID(0); h < 6; h++ {
		h := h
		ep := n.Endpoint(h)
		ep.Join(7)
		ep.SetHandler(func(pkt Packet) { got[h]++ })
	}
	// Kill everything crossing sw1's uplink; intra-group paths untouched.
	n.SetLinkProfile(devID(t, n.top, "sw1"), devID(t, n.top, "core"), LinkProfile{Loss: 0.999999999})
	const rounds = 20
	for i := 0; i < rounds; i++ {
		n.Endpoint(0).Multicast(7, 2, []byte("x"))
	}
	eng.RunAll()
	if got[1] != rounds || got[2] != rounds {
		t.Fatalf("same-group deliveries suffered link loss: %v", got)
	}
	if got[3]+got[4]+got[5] > 1 { // ~1e-9 chance per delivery
		t.Fatalf("cross-uplink deliveries survived loss=~1 profile: %v", got)
	}
}

func TestLinkProfileUnicastPath(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3))
	recv := 0
	n.Endpoint(4).SetHandler(func(pkt Packet) { recv++ })
	n.Endpoint(5).SetHandler(func(pkt Packet) { recv += 100 })
	n.SetLinkProfile(devID(t, n.top, "sw1"), devID(t, n.top, "core"), LinkProfile{Loss: 0.999999999})
	for i := 0; i < 10; i++ {
		if !n.Endpoint(0).Unicast(4, []byte("x")) { // crosses the degraded uplink
			t.Fatal("Unicast reported unreachable; loss must stay silent")
		}
		if !n.Endpoint(3).Unicast(5, []byte("x")) { // same switch, unaffected
			t.Fatal("intra-group Unicast reported unreachable")
		}
	}
	eng.RunAll()
	if recv/100 != 10 {
		t.Fatalf("intra-group unicast suffered link loss: recv=%d", recv)
	}
	if recv%100 > 1 {
		t.Fatalf("cross-uplink unicast survived loss=~1 profile: recv=%d", recv)
	}
}

func TestLinkProfileComposesWithGlobal(t *testing.T) {
	_, n := newNet(t, topology.FlatLAN(2))
	n.SetLossProbability(0.5)
	n.SetLatencyJitter(0.1)
	bit := n.top.MarkLink(devID(t, n.top, "sw0"), devID(t, n.top, "node000"))
	for len(n.profiles) <= bit {
		n.profiles = append(n.profiles, LinkProfile{})
	}
	n.profiles[bit] = LinkProfile{Loss: 0.5, Jitter: 0.4, Dup: 0.25, Corrupt: 0.5}
	want := LinkProfile{Loss: 0.75, Jitter: 0.4, Dup: 0.25, Corrupt: 0.5}
	_, marks := n.top.UnicastPath(0, 1) // crosses node000's link
	if got := n.compose(marks); got != want {
		t.Fatalf("composed profile = %+v, want %+v", got, want)
	}
	// Unmarked paths keep the global knobs, and draw no byte faults.
	want = LinkProfile{Loss: 0.5, Jitter: 0.1}
	if got := n.compose(topology.MarkSet{}); got != want {
		t.Fatalf("compose(empty) = %+v, want the globals %+v", got, want)
	}
}

func TestLinkProfileZeroRestoresDefaults(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3))
	got := 0
	n.Endpoint(3).Join(7)
	n.Endpoint(3).SetHandler(func(pkt Packet) { got++ })
	n.SetLinkProfile(devID(t, n.top, "sw1"), devID(t, n.top, "core"), LinkProfile{Loss: 0.999999999})
	n.Endpoint(0).Multicast(7, 2, []byte("x"))
	eng.RunAll()
	lost := got == 0
	n.SetLinkProfile(devID(t, n.top, "sw1"), devID(t, n.top, "core"), LinkProfile{})
	const rounds = 5
	for i := 0; i < rounds; i++ {
		n.Endpoint(0).Multicast(7, 2, []byte("x"))
	}
	eng.RunAll()
	if !lost {
		t.Fatalf("profile with loss ~1 delivered anyway")
	}
	if got != rounds {
		t.Fatalf("zero profile did not restore lossless delivery: got %d of %d", got, rounds)
	}
}

func TestLinkProfileValidation(t *testing.T) {
	_, n := newNet(t, topology.FlatLAN(2))
	for _, p := range []LinkProfile{{Loss: 1}, {Loss: -0.1}, {Jitter: 1.5}, {Dup: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLinkProfile(%+v) did not panic", p)
				}
			}()
			n.SetLinkProfile(devID(t, n.top, "sw0"), topology.DeviceID(0), p)
		}()
	}
}

// TestFanoutCacheRebuildsOnRouterFailure drives the cached multicast fan-out
// across a mid-run router failure: the cache must be rebuilt when the
// topology epoch bumps (no stale deliveries across the dead router, no
// missed hosts after the repair) and when subscriptions change.
func TestFanoutCacheRebuildsOnRouterFailure(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(2, 3)) // hosts 0-2 on sw0, 3-5 on sw1
	const ch = ChannelID(7)
	recv := map[topology.HostID]int{}
	for h := topology.HostID(1); h < 6; h++ {
		h := h
		n.Endpoint(h).Join(ch)
		n.Endpoint(h).SetHandler(func(pkt Packet) { recv[h]++ })
	}
	send := func() map[topology.HostID]int {
		clear(recv)
		n.Endpoint(0).Multicast(ch, 2, []byte("x"))
		eng.RunAll()
		return recv
	}

	if got := send(); len(got) != 5 { // warm the cache
		t.Fatalf("warm-up multicast reached %v, want all 5 receivers", got)
	}
	core := devID(t, n.top, "core")
	n.top.FailDevice(core)
	if got := send(); got[1] != 1 || got[2] != 1 || len(got) != 2 {
		t.Fatalf("with core failed, multicast reached %v, want only hosts 1,2 (stale fan-out cache?)", got)
	}
	n.top.RepairDevice(core)
	if got := send(); len(got) != 5 {
		t.Fatalf("after repair, multicast reached %v, want all 5 receivers again", got)
	}

	// Subscription changes must invalidate the cache too.
	n.Endpoint(2).Leave(ch)
	if got := send(); got[2] != 0 || len(got) != 4 {
		t.Fatalf("after Leave, multicast reached %v, want hosts 1,3,4,5", got)
	}
	n.Endpoint(2).Join(ch)
	if got := send(); len(got) != 5 {
		t.Fatalf("after re-Join, multicast reached %v, want all 5 receivers", got)
	}
}

// TestLinkProfilesBeyond64Marks exercises the growable mark namespace end to
// end: with more than 64 marked links, a profile installed on a high-bit
// link must still gate deliveries whose path crosses it.
func TestLinkProfilesBeyond64Marks(t *testing.T) {
	eng, n := newNet(t, topology.FlatLAN(70))
	sw := devID(t, n.top, "sw0")
	// Burn 69 mark bits on healthy links, then install a drop-everything
	// profile on host 69's uplink — its bit index is 69, past the old cap.
	for i := 0; i < 69; i++ {
		n.SetLinkProfile(sw, devID(t, n.top, fmtNode(i)), LinkProfile{})
	}
	bit := n.top.MarkLink(sw, devID(t, n.top, fmtNode(69)))
	if bit != 69 {
		t.Fatalf("mark bit = %d, want 69", bit)
	}
	n.installProfile(bit, LinkProfile{Loss: 0.999999999})
	recv := map[topology.HostID]int{}
	for _, h := range []topology.HostID{1, 69} {
		h := h
		n.Endpoint(h).SetHandler(func(pkt Packet) { recv[h]++ })
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		n.Endpoint(0).Unicast(1, []byte("x"))
		n.Endpoint(0).Unicast(69, []byte("x"))
	}
	eng.RunAll()
	if recv[1] != rounds {
		t.Fatalf("unaffected path lost packets: recv[1] = %d, want %d", recv[1], rounds)
	}
	if recv[69] > 1 {
		t.Fatalf("high-bit profile not applied: recv[69] = %d, want ~0", recv[69])
	}
}

func fmtNode(i int) string {
	return "node" + string([]byte{'0' + byte(i/100), '0' + byte(i/10%10), '0' + byte(i%10)})
}
