package rapid

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func newCluster(top *topology.Topology, seed int64) (*sim.Engine, *netsim.Network, []*Node) {
	eng := sim.NewEngine(seed)
	net := netsim.New(eng, top)
	cfg := DefaultConfig()
	for h := 0; h < top.NumHosts(); h++ {
		cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
	}
	var nodes []*Node
	for h := 0; h < top.NumHosts(); h++ {
		nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	return eng, net, nodes
}

// TestRapidConvergence: a cold boot must converge every directory to the
// full membership without a single view change — the seed configuration is
// already agreed, only the records flow.
func TestRapidConvergence(t *testing.T) {
	eng, _, nodes := newCluster(topology.Clustered(3, 5), 11)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	for _, n := range nodes {
		if n.Directory().Len() != len(nodes) {
			t.Fatalf("node %v sees %d members, want %d", n.ID(), n.Directory().Len(), len(nodes))
		}
		if n.ConfigSeq() != 1 {
			t.Fatalf("node %v installed view %d on a steady boot, want the seed view", n.ID(), n.ConfigSeq())
		}
	}
}

// TestRapidEvictionAndRejoin kills one node: every survivor must install a
// view change removing it within the detection+arbitration bound, and a
// restart must re-admit it everywhere.
func TestRapidEvictionAndRejoin(t *testing.T) {
	eng, _, nodes := newCluster(topology.Clustered(3, 5), 7)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	victim := nodes[7]
	victim.Stop()
	// detect (5s) + arbitrate-after (5s) + probe retries (~6s) + batch (2s)
	// + margin
	eng.Run(eng.Now() + 25*time.Second)
	for _, n := range nodes {
		if n == victim {
			continue
		}
		if n.ConfigSeq() < 2 {
			t.Fatalf("node %v never installed the eviction view", n.ID())
		}
		if n.Directory().Has(victim.ID()) {
			t.Fatalf("node %v still lists the dead node", n.ID())
		}
		for _, m := range n.members {
			if m == victim.ID() {
				t.Fatalf("node %v's configuration still contains the dead node", n.ID())
			}
		}
	}
	victim.Start(eng)
	eng.Run(eng.Now() + 15*time.Second)
	for _, n := range nodes {
		if !n.Directory().Has(victim.ID()) {
			t.Fatalf("node %v never re-admitted the restarted node", n.ID())
		}
		if n.Directory().Len() != len(nodes) {
			t.Fatalf("node %v sees %d members after rejoin, want %d", n.ID(), n.Directory().Len(), len(nodes))
		}
	}
}

// TestRapidStabilityUnderOneWayLoss is the scheme's reason to exist: a 90%
// one-way loss regime makes observers accuse a healthy member, but the
// up-quiet veto must keep it in every configuration — zero evictions.
func TestRapidStabilityUnderOneWayLoss(t *testing.T) {
	top := topology.Clustered(3, 5)
	eng, net, nodes := newCluster(top, 13)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	// 90% loss in the sw0→core direction only: group 0's beats to outside
	// observers mostly vanish, so those observers accuse group 0's
	// members — while everything flowing into group 0 (including its
	// members' probe answers crossing back out... which also get lost)
	// keeps the asymmetric pressure on. The up-quiet veto must absorb it.
	sw0, ok1 := top.FindDevice("sw0")
	core, ok2 := top.FindDevice("core")
	if !ok1 || !ok2 {
		t.Fatal("topology devices not found")
	}
	net.SetLinkProfileDir(sw0.ID, core.ID, netsim.LinkProfile{Loss: 0.9})
	eng.Run(eng.Now() + 60*time.Second)
	for _, n := range nodes {
		if n.ConfigSeq() != 1 {
			t.Fatalf("node %v installed view %d: a healthy member was evicted under one-way loss",
				n.ID(), n.ConfigSeq())
		}
	}
}

// TestRapidMinorityCannotEvict pins the majority gate: a fully partitioned
// minority group must never commit a view change (its proposals cannot reach
// a quorum of the old configuration), while the majority evicts the minority
// normally — and after the heal the minority re-adopts the majority chain
// and rejoins, converging every directory back to full membership.
func TestRapidMinorityCannotEvict(t *testing.T) {
	top := topology.Clustered(3, 5)
	eng, _, nodes := newCluster(top, 17)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	sw0, _ := top.FindDevice("sw0")
	core, _ := top.FindDevice("core")
	top.FailLink(sw0.ID, core.ID)
	eng.Run(eng.Now() + 40*time.Second)
	for _, n := range nodes[:5] {
		if n.ConfigSeq() != 1 {
			t.Fatalf("minority node %v committed view %d without a quorum", n.ID(), n.ConfigSeq())
		}
	}
	for _, n := range nodes[5:] {
		if n.ConfigSeq() < 2 {
			t.Fatalf("majority node %v never evicted the partitioned group", n.ID())
		}
		if len(n.members) != 10 {
			t.Fatalf("majority node %v has %d members, want 10", n.ID(), len(n.members))
		}
	}
	top.RepairLink(sw0.ID, core.ID)
	eng.Run(eng.Now() + 30*time.Second)
	for _, n := range nodes {
		if len(n.members) != len(nodes) {
			t.Fatalf("node %v has %d members after heal, want %d", n.ID(), len(n.members), len(nodes))
		}
		if n.Directory().Len() != len(nodes) {
			t.Fatalf("node %v sees %d records after heal, want %d", n.ID(), n.Directory().Len(), len(nodes))
		}
	}
}

// TestDCAwareRingsCoverAndLocalize pins the deriveRingsDC contract on a
// hand-built DC map: rings stay deterministic, observer/subject sets are
// mutually consistent across members, every member keeps at least one
// cross-DC edge (ring 0), and all other edges stay inside the member's DC.
func TestDCAwareRingsCoverAndLocalize(t *testing.T) {
	var members []membership.NodeID
	for i := 0; i < 24; i++ {
		members = append(members, membership.NodeID(i))
	}
	dcOf := func(id membership.NodeID) int { return int(id) / 8 } // 3 DCs of 8
	subsOf := map[membership.NodeID][]membership.NodeID{}
	obsOf := map[membership.NodeID][]membership.NodeID{}
	for _, self := range members {
		obs, subs := deriveRingsDC(7, 8, members, self, dcOf)
		obs2, subs2 := deriveRingsDC(7, 8, members, self, dcOf)
		if !slices.Equal(obs, obs2) || !slices.Equal(subs, subs2) {
			t.Fatalf("member %v: derivation not deterministic", self)
		}
		obsOf[self], subsOf[self] = obs, subs
	}
	// Ring 0 is one global cycle, so the union monitoring graph must stay
	// strongly connected across DCs (a node's ring-0 successor may happen to
	// share its DC, so connectivity — not a per-node cross edge — is the
	// guaranteed property).
	reached := map[membership.NodeID]bool{members[0]: true}
	frontier := []membership.NodeID{members[0]}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, s := range subsOf[cur] {
			if !reached[s] {
				reached[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	if len(reached) != len(members) {
		t.Errorf("monitoring graph reaches only %d of %d members", len(reached), len(members))
	}
	for _, self := range members {
		cross := 0
		for _, s := range subsOf[self] {
			if dcOf(s) != dcOf(self) {
				cross++
			}
		}
		if cross > 1 {
			t.Errorf("member %v has %d cross-DC subjects, want at most the ring-0 edge", self, cross)
		}
		// Symmetry: X subjects Y iff Y observes X.
		for _, s := range subsOf[self] {
			found := false
			for _, o := range obsOf[s] {
				if o == self {
					found = true
				}
			}
			if !found {
				t.Errorf("member %v monitors %v but %v does not list it as observer", self, s, self)
			}
		}
		if len(obsOf[self]) < 3 {
			t.Errorf("member %v has only %d observers", self, len(obsOf[self]))
		}
	}
}

// TestDCAwareRingsCutWANBytes runs the same steady MultiDC cluster with and
// without the topology-aware overlay and compares WAN bytes: DC-local rings
// must remove the bulk of the cross-DC heartbeat load without costing
// convergence. The measured ratio is recorded in EXPERIMENTS.md.
func TestDCAwareRingsCutWANBytes(t *testing.T) {
	run := func(aware bool) uint64 {
		top := topology.MultiDC(3, 2, 4) // 24 hosts across 3 DCs
		eng := sim.NewEngine(29)
		net := netsim.New(eng, top)
		cfg := DefaultConfig()
		if aware {
			cfg.DCOf = func(id membership.NodeID) int { return top.HostDC(topology.HostID(id)) }
		}
		for h := 0; h < top.NumHosts(); h++ {
			cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
		}
		var nodes []*Node
		for h := 0; h < top.NumHosts(); h++ {
			nodes = append(nodes, NewNode(cfg, net.Endpoint(topology.HostID(h))))
		}
		for _, n := range nodes {
			n.Start(eng)
		}
		eng.Run(10 * time.Second)
		for _, n := range nodes {
			if n.Directory().Len() != len(nodes) {
				t.Fatalf("aware=%v: node %v sees %d members, want %d",
					aware, n.ID(), n.Directory().Len(), len(nodes))
			}
		}
		net.ResetStats()
		eng.Run(eng.Now() + 60*time.Second)
		return net.WANBytes()
	}
	global := run(false)
	local := run(true)
	if global == 0 {
		t.Fatal("global overlay produced no WAN traffic")
	}
	t.Logf("WAN bytes over 60s steady state: global=%d dc-aware=%d (%.1f%%)",
		global, local, 100*float64(local)/float64(global))
	if local*2 >= global {
		t.Fatalf("dc-aware overlay only cut WAN bytes from %d to %d, want >2x", global, local)
	}
}

// TestRapidReplayFromEvictedMemberRejected: after a member has been evicted,
// a replay of any beat it ever sent to one of its observers is rejected and
// counted before it can touch the edge state or provoke an answer, and
// nothing about it re-enters the configuration or the directory — the marks
// outlive the member. A beat it never sent passes the guard (and is answered
// with the current view, the victim being a configuration behind), yet a
// beat alone still admits nobody.
func TestRapidReplayFromEvictedMemberRejected(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dInc, dBeat int // offset from the last pair the victim sent
		accepted    bool
	}{
		{"last beat again", 0, 0, false},
		{"an older beat", 0, -3, false},
		{"an older incarnation with a later beat", -1, +100, false},
		{"the next beat", 0, +1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, net, nodes := newCluster(topology.Clustered(3, 5), 7)
			for _, n := range nodes {
				n.Start(eng)
			}
			victim := nodes[7]
			victim.Stop() // bring the victim to its second incarnation
			victim.Start(eng)
			eng.Run(5 * time.Second)
			var observer *Node
			for _, n := range nodes {
				if p := n.peers.Get(victim.ID()); p != nil && p.subject {
					observer = n
					break
				}
			}
			victim.Stop()
			eng.Run(eng.Now() + 25*time.Second)
			if observer.Directory().Has(victim.ID()) || observer.isMember(victim.ID()) {
				t.Fatal("the stopped node was not evicted")
			}
			ep := net.Endpoint(topology.HostID(observer.ID()))
			before := ep.Stats()
			observer.Receive(netsim.Packet{Src: topology.HostID(victim.ID()), Dst: topology.HostID(observer.ID()), Payload: wire.Encode(&wire.RapidBeat{
				From:      victim.ID(),
				ConfigSeq: victim.ConfigSeq(),
				Inc:       uint32(int(victim.Record().Incarnation) + tc.dInc),
				Beat:      uint64(int(victim.Record().Beat) + tc.dBeat),
			})})
			rejects, answers := ep.Stats().Rejected-before.Rejected, ep.Stats().PktsSent-before.PktsSent
			if (rejects == 0) != tc.accepted || (answers != 0) != tc.accepted {
				t.Fatalf("%d rejects and %d answers, want accepted = %v", rejects, answers, tc.accepted)
			}
			if observer.peers.Get(victim.ID()).subject || observer.Directory().Has(victim.ID()) || observer.isMember(victim.ID()) {
				t.Fatal("the beat brought the evicted node back")
			}
		})
	}
}

// capturingTransport keeps the last unicast payload and sends nothing, so
// what a send allocates is the sender's own.
type capturingTransport struct {
	netsim.Transport
	last []byte
}

func (c *capturingTransport) Unicast(_ topology.HostID, payload []byte) bool {
	c.last = payload
	return true
}

func (c *capturingTransport) UnicastAll(_ []topology.HostID, payload []byte) { c.last = payload }

// TestBeatFitsItsSizeClass: a monitoring beat padded to the paper's 228 bytes
// declares its tail instead of carrying it, so a round of beats frames at
// most 48 bytes into the node's send buffer, shared by every observer, and
// allocates nothing.
func TestBeatFitsItsSizeClass(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.HeartbeatPad = 166
	for h := 0; h < 10; h++ {
		cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
	}
	ep := &capturingTransport{Transport: netsim.New(eng, topology.Clustered(1, 10)).Endpoint(0)}
	n := NewNode(cfg, ep)
	n.Start(eng)
	if len(n.observers) == 0 {
		t.Fatal("the node has no observers to beat to")
	}
	allocs := testing.AllocsPerRun(100, n.sendBeats)
	if b := ep.last; allocs != 0 || len(b) > 48 || len(b)+wire.Padding(b)+netsim.UDPOverhead != 228 {
		t.Fatalf("a round of beats allocates %v times and frames %d bytes modelled at %d, want none and at most 48 modelled at 228",
			allocs, len(b), len(b)+wire.Padding(b)+netsim.UDPOverhead)
	}
}

// TestViewSendAllocatesNothing: a configuration retransmission frames the
// node's own view — the member list viewed, the carried records re-encoded
// into the list's buffer — so once warm it allocates nothing, and carries
// every member and every member's record.
func TestViewSendAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	for h := 0; h < 10; h++ {
		cfg.Seeds = append(cfg.Seeds, membership.NodeID(h))
	}
	ep := &capturingTransport{Transport: netsim.New(eng, topology.Clustered(1, 10)).Endpoint(0)}
	n := NewNode(cfg, ep)
	n.Start(eng)
	for h := membership.NodeID(1); h < 10; h++ {
		info := membership.MemberInfo{Node: h, Incarnation: 1, Version: 1,
			Services: []membership.ServiceDecl{{Name: "svc", Partitions: []int32{int32(h)}}}}
		n.Directory().Upsert(info, membership.OriginRelayed, 0, membership.NoNode, 0)
	}
	now := time.Duration(0)
	send := func() {
		now += syncMinGap
		n.sendViewTo(3, now)
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("a warm view retransmission allocates %v times, want 0", allocs)
	}
	msg, err := wire.Decode(ep.last)
	v, ok := msg.(*wire.RapidView)
	if err != nil || !ok {
		t.Fatalf("the retransmission decodes to %T, %v; want a view", msg, err)
	}
	records := 0
	for c := v.Infos.Cursor(); c.Next(); {
		records++
	}
	if !slices.Equal(v.Members, cfg.Seeds) || records != 10 {
		t.Fatalf("the view carries members %v and %d records, want %v and 10", v.Members, records, cfg.Seeds)
	}
}

// BenchmarkRapidReceiveBeat is an observer's own cost of one monitoring
// beat — the replay guard, the configuration check and the edge refresh —
// with its subjects taking turns; the decode is wire's to time.
func BenchmarkRapidReceiveBeat(b *testing.B) {
	eng, _, nodes := newCluster(topology.Clustered(1, 20), 1)
	n := nodes[0]
	n.Start(eng)
	beat := wire.RapidBeat{ConfigSeq: n.ConfigSeq(), Inc: 1}
	turn := 0
	step := func() {
		if turn%len(n.subjects) == 0 {
			beat.Beat++
		}
		beat.From = n.subjects[turn%len(n.subjects)]
		turn++
		n.onBeat(&beat, time.Duration(turn))
	}
	for range n.subjects { // every subject's chunk and edge entry exist
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		b.Fatalf("receiving a subject's beat allocates %.1f per beat, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if rejected := n.ep.(*netsim.Endpoint).Stats().Rejected; rejected != 0 {
		b.Fatalf("%d beats died in the replay guard; the loop timed the guard, not the receive path", rejected)
	}
	if n.peers.Get(beat.From).lastHeard != time.Duration(turn) {
		b.Fatal("the beats did not refresh their edges")
	}
}

// TestBeatDeliveryAllocatesNothing: a padded monitoring beat unicast through
// the network parses into the receiving endpoint's resident record, so the
// whole delivery — send, decode, replay guard, edge refresh — allocates
// nothing.
func TestBeatDeliveryAllocatesNothing(t *testing.T) {
	eng, net, nodes := newCluster(topology.Clustered(1, 20), 1)
	n := nodes[0]
	n.Start(eng)
	n.hb.Stop() // only the beats below reach the engine
	n.scan.Stop()
	n.infoTick.Stop()
	eng.RunAll()
	subject := n.subjects[0]
	const beats = 101 // AllocsPerRun's warm-up call and its 100 runs
	payloads := make([][]byte, beats)
	for i := range payloads {
		payloads[i] = wire.Encode(&wire.RapidBeat{From: subject, ConfigSeq: n.ConfigSeq(), Inc: 1, Beat: uint64(i + 1), Pad: 166})
	}
	sent := 0
	deliver := func() {
		net.Endpoint(topology.HostID(subject)).Unicast(n.ep.ID(), payloads[sent])
		sent++
		eng.RunAll()
	}
	if allocs := testing.AllocsPerRun(beats-1, deliver); allocs != 0 {
		t.Fatalf("delivering a beat allocates %v times, want 0", allocs)
	}
	if rejected := n.ep.(*netsim.Endpoint).Stats().Rejected; rejected != 0 || sent != beats || n.peers.Get(subject).lastHeard != eng.Now() {
		t.Fatalf("%d of %d beats sent, %d rejected: the loop did not time accepted beats", sent, beats, rejected)
	}
}

// TestRapidGuardsOutliveSessions: a restart and a view change each end every
// peer's session — membership and subject flags, edge state, arbitration
// state and votes are re-derived from the installed configuration — and
// leave the guard half alone, so a beat, a member record and a proposal
// round replayed from before are rejected afterwards exactly as they would
// have been before.
func TestRapidGuardsOutliveSessions(t *testing.T) {
	eng, net, nodes := newCluster(topology.Clustered(3, 5), 7)
	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(5 * time.Second)
	proposer := nodes[0] // the lowest member arbitrates and proposes
	var observer *Node
	for _, n := range nodes[1:] {
		if p := n.peers.Get(proposer.ID()); p != nil && p.subject {
			observer = n
			break
		}
	}
	// An eviction gives the observer a proposal token from the proposer, on
	// top of its beat and record marks.
	evictee := nodes[7]
	if evictee == observer {
		evictee = nodes[8]
	}
	evictee.Stop()
	eng.Run(eng.Now() + 25*time.Second)
	if observer.ConfigSeq() != 2 || observer.isMember(evictee.ID()) {
		t.Fatalf("the observer is on view %d, want the eviction view", observer.ConfigSeq())
	}
	about := observer.peers.Get(proposer.ID())
	guards := about.peerGuards
	if guards.beat == (membership.Mark{}) || !guards.info.seen || guards.propToken == 0 {
		t.Fatalf("the scenario left a guard unset: %+v", guards)
	}
	ep := net.Endpoint(topology.HostID(observer.ID()))
	lastRecord := proposer.Info()
	lastRecord.Beat = guards.info.beat
	replaysRejected := func(when string) {
		t.Helper()
		for _, m := range []wire.Message{
			&wire.RapidBeat{From: proposer.ID(), ConfigSeq: observer.ConfigSeq(), Inc: proposer.Record().Incarnation, Beat: proposer.Record().Beat},
			&wire.RapidInfo{ConfigSeq: observer.ConfigSeq(), Info: lastRecord},
			&wire.RapidPropose{From: proposer.ID(), Token: guards.propToken - 1, Seq: observer.ConfigSeq() + 1},
		} {
			before := ep.Stats()
			observer.Receive(netsim.Packet{Src: topology.HostID(proposer.ID()), Dst: topology.HostID(observer.ID()), Payload: wire.Encode(m)})
			if after := ep.Stats(); after.Rejected != before.Rejected+1 || after.PktsSent != before.PktsSent {
				t.Errorf("%s, a replayed %T drew %d rejects and %d answers, want 1 and 0",
					when, m, after.Rejected-before.Rejected, after.PktsSent-before.PktsSent)
			}
		}
	}
	// dirty puts every kind of session state on the record; sessionsFresh
	// requires that installing a configuration just now left, on every
	// record, only what the configuration implies.
	dirty := func() {
		about.down, about.lastAlert, about.confirmed, about.vote = true, eng.Now(), true, 99
		about.probe = probeState{token: 5, tries: 2, deadline: eng.Now()}
	}
	sessionsFresh := func(when string) {
		t.Helper()
		observer.peers.Each(func(id membership.NodeID, p *peer) {
			want := peerSession{member: slices.Contains(observer.members, id), subject: slices.Contains(observer.subjects, id)}
			if want.subject {
				want.lastHeard = eng.Now()
			}
			if p.peerSession != want {
				t.Errorf("%s, %v's session is %+v, want %+v", when, id, p.peerSession, want)
			}
		})
		if about.peerGuards != guards {
			t.Errorf("%s the guards are %+v, were %+v", when, about.peerGuards, guards)
		}
	}
	replaysRejected("before anything")

	dirty()
	observer.Stop()
	observer.Start(eng)
	sessionsFresh("after a restart")
	replaysRejected("after a restart")

	dirty()
	gone := nodes[14].ID()
	if gone == observer.ID() {
		gone = nodes[13].ID()
	}
	next := &wire.RapidView{Seq: observer.ConfigSeq() + 1, Proposer: proposer.ID()}
	for _, m := range observer.members {
		if m != gone {
			next.Members = append(next.Members, m)
		}
	}
	observer.Receive(netsim.Packet{Src: topology.HostID(proposer.ID()), Dst: topology.HostID(observer.ID()), Payload: wire.Encode(next)})
	if observer.ConfigSeq() != next.Seq || observer.isMember(gone) || !about.member {
		t.Fatalf("the observer is on view %d, want the one just sent", observer.ConfigSeq())
	}
	sessionsFresh("after a view change")
	replaysRejected("after a view change")
}

// TestRapidReinstallAllocatesNoPeerState: installing a configuration — every
// view change, every restart — allocates nothing for per-peer state. What is
// left is the member list's copy and the ring derivation: one permutation
// per ring, the two edge lists' growth, and their sorts.
func TestRapidReinstallAllocatesNoPeerState(t *testing.T) {
	eng, _, nodes := newCluster(topology.Clustered(1, 20), 1)
	n := nodes[0]
	n.Start(eng)
	n.cut.Down(3, 4, 0) // a tally for the reset to clear
	const ceiling = 19
	if allocs := testing.AllocsPerRun(100, func() { n.installMembers(n.members, 0) }); allocs > ceiling {
		t.Fatalf("re-installing an unchanged configuration allocates %.0f times, want at most %d", allocs, ceiling)
	}
}

// TestAdoptDecodesOnlyAdmittedRecords: the records a view carries stay
// encoded until the freshness guard has judged them on their prefix. Admitted
// ones land in the directory exactly as sent, in relayed custody of the
// proposer; stale ones change nothing and are never built — adopting a view
// full of stale records with services and attributes allocates exactly what
// adopting the same view with no records does.
func TestAdoptDecodesOnlyAdmittedRecords(t *testing.T) {
	fat := func(id membership.NodeID, ver, beat uint64) membership.MemberInfo {
		return membership.MemberInfo{
			Node: id, Incarnation: 1, Version: ver, Beat: beat,
			Services: []membership.ServiceDecl{{Name: "index", Partitions: []int32{int32(id), 7}, Params: []membership.KV{{Key: "port", Value: "80"}}}},
			Attrs:    []membership.KV{{Key: "rack", Value: "r" + id.String()}},
		}
	}
	const proposer = 1
	boot := func() *Node {
		eng, _, nodes := newCluster(topology.Clustered(1, 20), 1)
		nodes[0].Start(eng)
		return nodes[0]
	}
	// received is configuration seq as it comes off the wire at n.
	received := func(n *Node, seq uint64, infos ...membership.MemberInfo) *wire.RapidView {
		v := &wire.RapidView{Seq: seq, Proposer: proposer, Members: n.members}
		for _, info := range infos {
			v.Infos.Append(info)
		}
		m, err := wire.Decode(wire.Encode(v))
		if err != nil {
			t.Fatal(err)
		}
		return m.(*wire.RapidView)
	}
	var first, stale []membership.MemberInfo
	for id := membership.NodeID(2); id < 12; id++ {
		first = append(first, fat(id, 3, 5))
		stale = append(stale, fat(id, 3, 5-uint64(id%2))) // level with the mark, or behind it
	}

	n := boot()
	n.adopt(received(n, 2, first...), 0)
	for _, want := range first {
		e := n.Directory().Get(want.Node)
		if e == nil || !reflect.DeepEqual(n.Directory().Info(e), want) || e.Origin != membership.OriginRelayed || e.Relayer != proposer {
			t.Fatalf("admitted record of %v landed as %+v, want %+v relayed by the proposer", want.Node, e, want)
		}
	}
	// Mixed view: a newer record for 2, a restarted 3, stale ones for the
	// rest, the receiver's own record, a non-member's and an impossible one.
	newer, restarted := fat(2, 4, 6), fat(3, 0, 9)
	restarted.Incarnation = 2
	mixed := append([]membership.MemberInfo{newer, restarted, fat(0, 9, 9), fat(77, 1, 1), fat(-3, 1, 1)}, stale[2:]...)
	n.adopt(received(n, 3, mixed...), time.Second)
	for i, want := range append([]membership.MemberInfo{newer, restarted}, first[2:]...) {
		e := n.Directory().Get(want.Node)
		if e == nil || !reflect.DeepEqual(n.Directory().Info(e), want) {
			t.Fatalf("after the mixed view, %v holds %+v, want %+v", want.Node, e, want)
		}
		if fresh := i < 2; (e.LastRefresh == time.Second) != fresh {
			t.Fatalf("after the mixed view, %v was refreshed at %v (admitted: %v)", want.Node, e.LastRefresh, fresh)
		}
	}
	if n.Directory().Has(77) || n.Directory().Get(0).Version == 9 {
		t.Fatal("a non-member's record or the receiver's own was taken from a view")
	}

	// Two identical nodes, primed alike, adopt the same run of configurations
	// — one with every record stale, one with none.
	adoptAllocs := func(infos ...membership.MemberInfo) float64 {
		n := boot()
		n.adopt(received(n, 2, first...), 0)
		const runs = 20
		views := make([]*wire.RapidView, runs+1) // AllocsPerRun warms up with one extra call
		for i := range views {
			views[i] = received(n, uint64(3+i), infos...)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			n.adopt(views[i], 0)
			i++
		})
		if n.ConfigSeq() != uint64(3+runs) || n.Directory().Get(5).Beat != 5 {
			t.Fatalf("fixture: on view %d with %+v for node 5", n.ConfigSeq(), *n.Directory().Get(5))
		}
		return allocs
	}
	if bare, carrying := adoptAllocs(), adoptAllocs(stale...); carrying != bare {
		t.Fatalf("adopting a view of %d stale records allocates %v times, the same view without them %v", len(stale), carrying, bare)
	}
}
