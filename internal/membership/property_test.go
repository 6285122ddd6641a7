package membership

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertyDirectoryInvariants drives a Directory with random operation
// sequences and checks structural invariants after every step:
//
//   - Nodes() is sorted and duplicate-free, and matches Len().
//   - Get is non-nil exactly for nodes in Nodes().
//   - Snapshot round-trips into an equal directory.
//   - Events balance: joins - leaves == Len() (excluding the pre-observer
//     population).
func TestPropertyDirectoryInvariants(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory(0)
		d.SetTombstoneTTL(5 * time.Second)
		joins, leaves := 0, 0
		d.AddObserver(func(e Event) {
			switch e.Type {
			case EventJoin:
				joins++
			case EventLeave:
				leaves++
			}
		})
		now := time.Duration(0)
		for _, op := range opsRaw {
			now += time.Duration(rng.Intn(1000)) * time.Millisecond
			node := NodeID(op % 16)
			switch op % 5 {
			case 0, 1: // direct upsert with advancing beat
				info := MemberInfo{Node: node, Incarnation: 1, Beat: uint64(now / time.Second)}
				d.Upsert(info, OriginDirect, int(op%3), NoNode, now)
			case 2: // relayed upsert, possibly stale
				info := MemberInfo{Node: node, Incarnation: 1, Beat: uint64(rng.Intn(20))}
				d.Upsert(info, OriginRelayed, 1, NodeID(op%7), now)
			case 3:
				d.Remove(node, now)
			case 4: // a heartbeat with unchanged info
				if e := d.get(node); e != nil {
					e.LastRefresh = now
				}
			}
			// Invariants.
			nodes := d.Nodes()
			if len(nodes) != d.Len() {
				return false
			}
			for i := 1; i < len(nodes); i++ {
				if nodes[i-1] >= nodes[i] {
					return false
				}
			}
			for _, n := range nodes {
				if d.Get(n) == nil || !d.Has(n) {
					return false
				}
			}
			if joins-leaves != d.Len() {
				return false
			}
		}
		// Snapshot round trip.
		snap := d.Snapshot()
		d2 := NewDirectory(1)
		for _, info := range snap {
			d2.Upsert(info, OriginRelayed, 0, 0, now)
		}
		if d2.Len() != d.Len() {
			return false
		}
		for _, n := range d.Nodes() {
			if !d2.Has(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExpiryNeverTouchesSelf: whatever the timeout function,
// Expired never nominates the owner.
func TestPropertyExpiryNeverTouchesSelf(t *testing.T) {
	f := func(ids []uint8, timeoutMS uint16) bool {
		d := NewDirectory(3)
		d.Upsert(MemberInfo{Node: 3}, OriginSelf, 0, NoNode, 0)
		for _, id := range ids {
			d.Upsert(MemberInfo{Node: NodeID(id % 8)}, OriginDirect, 0, NoNode, 0)
		}
		expired, _ := d.Expired(time.Hour, func(*Entry) time.Duration {
			return time.Duration(timeoutMS) * time.Millisecond
		})
		for _, n := range expired {
			if n == 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
