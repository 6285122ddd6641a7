package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestStatsCounters(t *testing.T) {
	top := topology.Clustered(2, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(20 * time.Second)

	leader := c.nodes[0]
	follower := c.nodes[1]
	ls, fs := leader.Stats(), follower.Stats()

	if ls.HeartbeatsSent == 0 || fs.HeartbeatsSent == 0 {
		t.Fatal("no heartbeats sent recorded")
	}
	// The leader heartbeats on two channels, so it sends more.
	if ls.HeartbeatsSent <= fs.HeartbeatsSent {
		t.Errorf("leader sent %d heartbeats <= follower %d", ls.HeartbeatsSent, fs.HeartbeatsSent)
	}
	if fs.HeartbeatsReceived == 0 {
		t.Fatal("no heartbeats received recorded")
	}
	if ls.Elections == 0 {
		t.Error("leader recorded no election")
	}
	if fs.Elections != 0 {
		t.Errorf("follower recorded %d elections", fs.Elections)
	}
	if ls.BootstrapsServed == 0 {
		t.Error("leader served no bootstraps")
	}
	// Followers learned the other group via relayed updates.
	if fs.UpdatesApplied == 0 {
		t.Error("follower applied no updates")
	}

	// A failure bumps expiry counters.
	c.nodes[5].Stop()
	c.run(30 * time.Second)
	if got := c.nodes[4].Stats().MembersExpired; got == 0 {
		t.Error("group mate expiry not counted")
	}
	if got := c.nodes[4].Stats().UpdatesOriginated; got == 0 {
		t.Error("leader originated no updates for the failure")
	}

	// Restart resets counters.
	c.nodes[5].Start(c.eng)
	if got := c.nodes[5].Stats(); got.HeartbeatsSent > 1 {
		t.Errorf("stats not reset on restart: %+v", got)
	}
}

func TestMarkSeenBounded(t *testing.T) {
	top := topology.FlatLAN(2)
	c := newCluster(top, cfgFor(top))
	n := c.nodes[0]
	n.Start(c.eng)
	for i := uint32(0); i < maxSeen+100; i++ {
		n.markSeen(wire.UpdateID{Origin: 7, Counter: i})
	}
	if len(n.seen.ring) != maxSeen {
		t.Fatalf("dedup set unbounded: %d", len(n.seen.ring))
	}
	// Oldest evicted, newest retained.
	if n.seen.has(wire.UpdateID{Origin: 7, Counter: 0}) {
		t.Fatal("oldest UID not evicted")
	}
	if !n.seen.has(wire.UpdateID{Origin: 7, Counter: maxSeen + 99}) {
		t.Fatal("newest UID missing")
	}
	// Re-marking a seen UID is a no-op.
	n.markSeen(wire.UpdateID{Origin: 7, Counter: maxSeen + 99})
	if len(n.seen.ring) != maxSeen || n.seen.oldest != 100 {
		t.Fatal("re-marking disturbed the FIFO")
	}
	// One origin, in-order counters: a single run survives the evictions.
	if liveOrigins(n.seen) != 1 {
		t.Fatalf("one origin's IDs are filed under %d origins", liveOrigins(n.seen))
	}
	if o := n.seen.origins[slotOf(n.seen, 7)]; len(o.runs)-int(o.head) != 1 {
		t.Fatalf("in-order counters of one origin kept %d runs", len(o.runs)-int(o.head))
	}
	// Every entry in the 100..maxSeen+99 window answers has(), and the
	// FIFO window boundary is exact.
	for i := uint32(100); i < maxSeen+100; i++ {
		if !n.seen.has(wire.UpdateID{Origin: 7, Counter: i}) {
			t.Fatalf("UID %d missing from window", i)
		}
	}
	if n.seen.has(wire.UpdateID{Origin: 7, Counter: 99}) {
		t.Fatal("UID 99 should have been evicted")
	}
}

func TestGroupMembersAndLeader(t *testing.T) {
	top := topology.Clustered(2, 3)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	// Follower's protocol view of its level-0 group.
	got := c.nodes[1].GroupMembers(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("GroupMembers = %v, want [0 2]", got)
	}
	if l := c.nodes[1].Leader(0); l != 0 {
		t.Fatalf("Leader(0) = %v, want 0", l)
	}
	if l := c.nodes[0].Leader(0); l != 0 {
		t.Fatalf("leader's own Leader(0) = %v, want self", l)
	}
	// Unjoined level: empty.
	if got := c.nodes[1].GroupMembers(1); got != nil {
		t.Fatalf("unjoined level members = %v", got)
	}
	if l := c.nodes[1].Leader(1); l != membership.NoNode {
		t.Fatalf("unjoined level leader = %v", l)
	}
	// Level-1 group: the two level-0 leaders see each other.
	got = c.nodes[0].GroupMembers(1)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("level-1 members at node 0 = %v, want [3]", got)
	}
}

func TestStatsSyncCounting(t *testing.T) {
	top := topology.Clustered(2, 4)
	cfg := cfgFor(top)
	c := newCluster(top, cfg)
	c.startAll()
	c.run(15 * time.Second)
	// Drop 6 consecutive update messages from node 0 to node 1 (beyond
	// piggyback depth 3) while generating changes.
	remaining := 6
	c.net.Endpoint(1).SetFilter(func(pkt netsim.Packet) bool {
		if remaining <= 0 {
			return true
		}
		if m, err := wire.Decode(pkt.Payload); err == nil {
			if um, ok := m.(*wire.UpdateMsg); ok && um.Sender == 0 {
				remaining--
				return false
			}
		}
		return true
	})
	for i := 0; i < 8; i++ {
		c.nodes[2].UpdateValue("k", string(rune('a'+i)))
		c.run(1500 * time.Millisecond)
	}
	c.run(5 * time.Second)
	if got := c.nodes[1].Stats().SyncsRequested; got == 0 {
		t.Fatal("sync fallback not counted")
	}
}

// TestStatsAddCoversEveryCounter guards Add against a counter added to
// Stats but not to the sum: every field must accumulate.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var one, total Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	total.Add(one)
	total.Add(one)
	sum := reflect.ValueOf(total)
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Add drops %s: got %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}

// fixedSeen is the dedup set as it was before it was stored by runs —
// maxSeen IDs from the first insert — written the plain way (a map and an
// insertion queue) as the reference the run-based set is checked against.
type fixedSeen struct {
	in    map[wire.UpdateID]bool
	queue []wire.UpdateID // oldest first
}

func (f *fixedSeen) mark(id wire.UpdateID) {
	if f.in[id] {
		return
	}
	if len(f.queue) == maxSeen {
		delete(f.in, f.queue[0])
		f.queue = f.queue[1:]
	}
	f.in[id] = true
	f.queue = append(f.queue, id)
}

// seenOrder lists the set's IDs in eviction order, oldest first: the ring
// names each ID's origin, and the origin's runs hand out its counters in
// insertion order. It fails the test unless that consumes every live run
// exactly.
func seenOrder(t testing.TB, s *seenSet) []wire.UpdateID {
	t.Helper()
	type cursor struct {
		run int
		off uint32
	}
	next := make([]cursor, len(s.origins))
	for slot := range next {
		next[slot].run = int(s.origins[slot].head)
	}
	out := make([]wire.UpdateID, 0, len(s.ring))
	for i := range s.ring {
		slot := s.ring[(s.oldest+i)%len(s.ring)]
		o, c := &s.origins[slot], &next[slot]
		if c.run >= len(o.runs) {
			t.Fatalf("eviction slot %d names origin slot %d, whose runs are used up", i, slot)
		}
		r := o.runs[c.run]
		out = append(out, wire.UpdateID{Origin: o.id, Counter: r.start + c.off})
		if c.off++; c.off >= r.n {
			c.run, c.off = c.run+1, 0
		}
	}
	for slot, c := range next {
		if o := &s.origins[slot]; c.run != len(o.runs) {
			t.Fatalf("origin %d holds runs the ring never names: %v from %d, walked to %d", o.id, o.runs, o.head, c.run)
		}
	}
	return out
}

// seenOracle marks IDs into a node's dedup set and into the fixedSeen
// reference alike, and checks after every mark that both answer has() alike
// for the ID just marked, for the one about to fall out and for the one that
// just did, that they hold as many IDs, and that the set's storage is
// bounded: the ring by maxSeen and by twice what it holds, the origin slots
// in use by the live origins and all of them by the most origins ever live.
// check compares the whole set with the reference.
type seenOracle struct {
	t      testing.TB
	n      *Node
	ref    *fixedSeen
	issued []wire.UpdateID
	peak   int // most distinct origins ever live
}

func newSeenOracle(t testing.TB) *seenOracle {
	return &seenOracle{t: t, n: &Node{}, ref: &fixedSeen{in: map[wire.UpdateID]bool{}}}
}

func (o *seenOracle) has(id wire.UpdateID) {
	o.t.Helper()
	if got, want := o.n.seen.has(id), o.ref.in[id]; got != want {
		o.t.Fatalf("after %d marks, has(%v) = %v, reference says %v", len(o.issued), id, got, want)
	}
}

func (o *seenOracle) mark(id wire.UpdateID) {
	o.t.Helper()
	o.n.markSeen(id)
	o.ref.mark(id)
	o.issued = append(o.issued, id)
	o.has(id)
	o.has(o.ref.queue[0])
	if past := len(o.issued) - maxSeen - 1; past >= 0 {
		o.has(o.issued[past])
	}
	s := o.n.seen
	if len(s.ring) != len(o.ref.queue) {
		o.t.Fatalf("after %d marks the set holds %d IDs, the reference %d", len(o.issued), len(s.ring), len(o.ref.queue))
	}
	if cap(s.ring) > maxSeen || (cap(s.ring) > 32 && cap(s.ring) >= 2*len(s.ring)) {
		o.t.Fatalf("after %d marks the ring has %d slots for %d IDs", len(o.issued), cap(s.ring), len(s.ring))
	}
	if slot := slotOf(s, id.Origin); slot < 0 || s.origins[slot].id != id.Origin {
		o.t.Fatalf("after %d marks the origin table files origin %d under slot %d", len(o.issued), id.Origin, slot)
	}
	o.peak = max(o.peak, liveOrigins(s))
	if len(s.origins) > o.peak {
		o.t.Fatalf("after %d marks %d origin slots, at most %d origins ever live", len(o.issued), len(s.origins), o.peak)
	}
}

func (o *seenOracle) check() {
	o.t.Helper()
	if o.n.seen == nil {
		if len(o.ref.queue) != 0 {
			o.t.Fatalf("the reference holds %d IDs, the node none", len(o.ref.queue))
		}
		return
	}
	got := seenOrder(o.t, o.n.seen)
	for i, want := range o.ref.queue {
		if got[i] != want {
			o.t.Fatalf("after %d marks, eviction slot %d holds %v, reference %v", len(o.issued), i, got[i], want)
		}
	}
	live := map[membership.NodeID]bool{}
	for id := range o.ref.in {
		o.has(id)
		live[id.Origin] = true
	}
	// The origin table names exactly the live origins, each under the slot
	// that holds it, and keeps no storage for released ones: every chunk and
	// every fallback record holds at least one live origin.
	s, listed := o.n.seen, 0
	s.slots.Each(func(id membership.NodeID, p *uint16) {
		if *p == 0 {
			return
		}
		listed++
		if so := &s.origins[*p-1]; so.id != id || int(so.head) == len(so.runs) || !live[id] {
			o.t.Fatalf("after %d marks the origin table files origin %d under slot %d (origin %d, runs %v from %d)",
				len(o.issued), id, *p-1, so.id, so.runs, so.head)
		}
	})
	_, chunks, wild := tableStorage(&s.slots)
	if listed != len(live) || liveOrigins(s) != len(live) || chunks+wild > len(live) {
		o.t.Fatalf("after %d marks the origin table lists %d origins in %d chunks and %d fallback records, %d slots are in use, the reference holds %d origins",
			len(o.issued), listed, chunks, wild, liveOrigins(s), len(live))
	}
}

// TestSeenSetGrowsExactly drives the run-based set and the fixed reference
// through 3×maxSeen inserts from several origins, with re-marks of recent,
// old and evicted IDs mixed in, under seenOracle's checks after every step
// and a whole comparison every 257 marks.
//
// Mutant: evict drops the origin's lowest counter instead of its oldest insertion.
func TestSeenSetGrowsExactly(t *testing.T) {
	o := newSeenOracle(t)
	rng := rand.New(rand.NewSource(5))
	for len(o.issued) < 3*maxSeen {
		id := wire.UpdateID{Origin: membership.NodeID(rng.Intn(5)), Counter: uint32(len(o.issued))}
		if len(o.issued) > 0 && rng.Intn(4) == 0 {
			// A re-mark: mostly of something recent, sometimes of anything
			// ever issued (present or long evicted, which re-inserts it).
			back := rng.Intn(min(len(o.issued), 50))
			if rng.Intn(5) == 0 {
				back = rng.Intn(len(o.issued))
			}
			id = o.issued[len(o.issued)-1-back]
		}
		o.mark(id)
		if len(o.issued)%257 == 0 {
			o.check()
		}
	}
	o.check()
	if len(o.n.seen.ring) != maxSeen || cap(o.n.seen.ring) != maxSeen {
		t.Fatalf("the ring ended at %d of %d slots, want the bound", len(o.n.seen.ring), cap(o.n.seen.ring))
	}
}

// TestSeenSetShapes holds the set to the reference on the input shapes its
// storage cares about.
//
// Mutant: add extends any of the origin's runs, not only the newest (reordered-counters).
// Mutant: evict skips slots.Delete (recycled-slots; FuzzSeenSet's seed#3 too).
// Mutant: liveSlot calls every record in use, so no chunk is released (recycled-slots).
func TestSeenSetShapes(t *testing.T) {
	shapes := []struct {
		name  string
		marks int
		next  func(rng *rand.Rand, i int) wire.UpdateID
	}{
		// tree-churn's shape: 50 origins, each counting up, interleaved.
		{"interleaved-origins", 3 * maxSeen, func() func(*rand.Rand, int) wire.UpdateID {
			var ctr [50]uint32
			return func(rng *rand.Rand, _ int) wire.UpdateID {
				o := rng.Intn(len(ctr))
				ctr[o]++
				return wire.UpdateID{Origin: membership.NodeID(o), Counter: ctr[o]}
			}
		}()},
		// One origin whose counters arrive shuffled within windows of 8,
		// and now and then far back: its runs fragment and rejoin.
		{"reordered-counters", 3 * maxSeen, func(rng *rand.Rand, i int) wire.UpdateID {
			c := uint32(i&^7 + rng.Intn(8))
			if rng.Intn(50) == 0 {
				c = uint32(rng.Intn(i + 1))
			}
			return wire.UpdateID{Origin: 3, Counter: c}
		}},
		// Origins outside membership's dense ID window, counters near the
		// top of their range so runs wrap through zero.
		{"far-origins", 3 * maxSeen, func() func(*rand.Rand, int) wire.UpdateID {
			far := []membership.NodeID{-1, -1 << 20, math.MinInt32, 1 << 16, 1<<16 + 1, 1 << 30, math.MaxInt32, 0}
			ctr := make([]uint32, len(far))
			for i := range ctr {
				ctr[i] = math.MaxUint32 - 600
			}
			return func(rng *rand.Rand, _ int) wire.UpdateID {
				o := rng.Intn(len(far))
				ctr[o]++
				return wire.UpdateID{Origin: far[o], Counter: ctr[o]}
			}
		}()},
		// More distinct origins over time than a 2-byte slot can name, up
		// to two IDs each: slots must be recycled.
		{"recycled-slots", 140_000, func(rng *rand.Rand, i int) wire.UpdateID {
			return wire.UpdateID{Origin: membership.NodeID(i / 2), Counter: uint32(rng.Intn(3))}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			o := newSeenOracle(t)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < sh.marks; i++ {
				o.mark(sh.next(rng, i))
				if i%257 == 0 {
					o.check()
				}
			}
			o.check()
		})
	}
}
