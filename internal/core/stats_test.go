package core

import (
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

func TestSetInfoPreservesIdentityAndIncarnation(t *testing.T) {
	top := topology.FlatLAN(2)
	c := newCluster(top, cfgFor(top))
	n := c.nodes[1]
	n.Start(c.eng)
	inc := n.Info().Incarnation
	var replacement membership.MemberInfo
	replacement.Node = 99 // must be overridden with the node's own ID
	replacement.SetAttr("dc", "west")
	replacement.Incarnation = 42 // must not override the live incarnation
	n.SetInfo(replacement)
	got := n.Info()
	if got.Node != 1 {
		t.Fatalf("SetInfo let the identity change: %v", got.Node)
	}
	if got.Incarnation != inc {
		t.Fatalf("SetInfo changed the incarnation: %d -> %d", inc, got.Incarnation)
	}
	if v, _ := got.Attr("dc"); v != "west" {
		t.Fatalf("attrs not replaced: %q", v)
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
	if n.seen.count != maxSeen {
		t.Fatalf("dedup set unbounded: %d", n.seen.count)
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
	if n.seen.count != maxSeen || n.seen.oldest != 100 {
		t.Fatal("re-marking disturbed the FIFO")
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

// fixedSeen is the dedup set as it was before it learned to grow — maxSeen
// slots from the first insert — written the plain way (a map and an
// insertion queue) as the reference the grown table is checked against.
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

// TestSeenSetGrowsExactly drives the grown table and the fixed-capacity
// reference through 3×maxSeen inserts from several origins, with re-marks of
// recent, old and evicted IDs mixed in: after every step both answer has()
// alike for the ID just marked, for the one about to fall out and for the
// one that just did, the table holds exactly the reference's window in the
// reference's eviction order, and it never holds more slots than twice what
// it needs (up to the bound).
func TestSeenSetGrowsExactly(t *testing.T) {
	n := &Node{}
	ref := &fixedSeen{in: map[wire.UpdateID]bool{}}
	rng := rand.New(rand.NewSource(5))
	var issued []wire.UpdateID
	check := func(id wire.UpdateID) {
		t.Helper()
		if got, want := n.seen.has(id), ref.in[id]; got != want {
			t.Fatalf("after %d marks, has(%v) = %v, reference says %v", len(issued), id, got, want)
		}
	}
	for len(issued) < 3*maxSeen {
		id := wire.UpdateID{Origin: membership.NodeID(rng.Intn(5)), Counter: uint32(len(issued))}
		if len(issued) > 0 && rng.Intn(4) == 0 {
			// A re-mark: mostly of something recent, sometimes of anything
			// ever issued (present or long evicted, which re-inserts it).
			back := rng.Intn(min(len(issued), 50))
			if rng.Intn(5) == 0 {
				back = rng.Intn(len(issued))
			}
			id = issued[len(issued)-1-back]
		}
		n.markSeen(id)
		ref.mark(id)
		issued = append(issued, id)
		check(id)
		check(ref.queue[0])
		if past := len(issued) - maxSeen - 1; past >= 0 {
			check(issued[past])
		}
		s := n.seen
		if s.count != len(ref.queue) {
			t.Fatalf("after %d marks the table holds %d IDs, the reference %d", len(issued), s.count, len(ref.queue))
		}
		if len(s.ring) > maxSeen || (len(s.ring) > minSeen && len(s.ring) >= 2*s.count) {
			t.Fatalf("after %d marks the table has %d slots for %d IDs", len(issued), len(s.ring), s.count)
		}
		if len(issued)%257 == 0 || len(issued) == 3*maxSeen {
			// The ring in eviction order is the reference's queue.
			for i, want := range ref.queue {
				if got := s.ring[(s.oldest+i)%len(s.ring)]; got != want {
					t.Fatalf("after %d marks, eviction slot %d holds %v, reference %v", len(issued), i, got, want)
				}
			}
			for id := range ref.in {
				check(id)
			}
		}
	}
	if len(n.seen.ring) != maxSeen || n.seen.count != maxSeen {
		t.Fatalf("the table ended at %d slots, %d IDs, want the bound", len(n.seen.ring), n.seen.count)
	}
}
