package membership

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// tombstone is how the directory held a removed node before its tombs
// became states of the entry slot: the removal time and the incarnation and
// beat the node had then, in a map keyed by node.
type tombstone struct {
	at   time.Duration
	inc  uint32
	beat uint64
}

// mapTombs is the reference model of tombstones: the members in a
// Directory with tombstones disabled, and the tombstones beside it in a map
// that every Remove prunes, as the directory kept them when they were a
// map. Its one departure from that code is marked where it applies.
type mapTombs struct {
	d     *Directory
	tombs map[NodeID]tombstone
	ttl   time.Duration
}

func newMapTombs(owner NodeID) *mapTombs {
	return &mapTombs{d: NewDirectory(owner), tombs: make(map[NodeID]tombstone)}
}

func (m *mapTombs) active(p InfoPrefix, now time.Duration) bool {
	ts, ok := m.tombs[p.Node]
	return m.ttl > 0 && ok && p.Incarnation <= ts.inc && p.Beat <= ts.beat && now-ts.at < m.ttl
}

func (m *mapTombs) upsert(info MemberInfo, origin Origin, level int, relayer NodeID, now time.Duration) bool {
	if origin == OriginRelayed {
		if m.active(info.Prefix(), now) {
			return false
		}
	} else {
		delete(m.tombs, info.Node)
	}
	joined := m.d.Upsert(info, origin, level, relayer, now)
	if joined {
		// The named exception: a re-add ends the tombstone. The map kept it
		// past a relayed re-add that carried newer evidence, where it could
		// reject a later stale record for a node present again.
		delete(m.tombs, info.Node)
	}
	return joined
}

func (m *mapTombs) remove(n NodeID, now time.Duration) bool {
	e := m.d.Get(n)
	if e == nil {
		return false
	}
	if m.ttl > 0 {
		m.tombs[n] = tombstone{at: now, inc: e.Incarnation, beat: e.Beat}
		for tn, ts := range m.tombs {
			if now-ts.at >= m.ttl {
				delete(m.tombs, tn)
			}
		}
	}
	return m.d.Remove(n, now)
}

func (m *mapTombs) merge(infos []MemberInfo, level int, relayer NodeID, now time.Duration) (joined []MemberInfo, tombstoned []NodeID, invalid int) {
	for _, info := range infos {
		switch {
		case info.Node == m.d.owner:
		case info.Node < 0:
			invalid++
		case m.active(info.Prefix(), now):
			tombstoned = append(tombstoned, info.Node)
		case m.upsert(info, OriginRelayed, level, relayer, now):
			joined = append(joined, info)
		}
	}
	return joined, tombstoned, invalid
}

// outcome names what a relayed record meets in the model, for the
// generator's coverage count.
func (m *mapTombs) outcome(p InfoPrefix, now time.Duration) string {
	ts, ok := m.tombs[p.Node]
	switch {
	case !ok || m.ttl <= 0 || m.d.Has(p.Node):
		return ""
	case m.active(p, now):
		return "rejected"
	case now-ts.at >= m.ttl:
		return "re-added past expiry"
	case p.Incarnation > ts.inc:
		return "re-added by a higher incarnation"
	}
	return "re-added by an advanced beat"
}

// TestTombsMatchMapModel is the differential property of the tombs: over
// random histories of removals, direct and relayed re-adds, snapshots,
// expiry, higher incarnations, advanced beats, and a TTL that is 0 or
// changes mid-history, on IDs in and outside the window (negative
// included), the directory and the map model return the same results, emit
// the same events and hold the same members.
//
// Mutant: get reads a tomb as a live entry (the tomb bit ignored).
// Mutant: tombHolds keeps a tomb while now-at <= tombTTL.
// Mutant: Upsert checks the tomb for every origin, so a direct upsert over a tomb is refused and the tomb kept.
// Mutant: tombHolds ignores tombFloor, so a tomb pruned under a short TTL holds again once the TTL grows.
func TestTombsMatchMapModel(t *testing.T) {
	ids := []NodeID{0, 1, 2, 3, 4, 5, 6, 7, 9, maxDense - 1, maxDense, 1 << 30, -1, -5}
	ttls := []time.Duration{0, 2 * time.Second, 5 * time.Second, 20 * time.Second}
	saw := map[string]int{}
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const owner = 0
		d, m := NewDirectory(owner), newMapTombs(owner)
		var got, want []Event
		d.AddObserver(func(e Event) { got = append(got, e) })
		m.d.AddObserver(func(e Event) { want = append(want, e) })
		setTTL := func(ttl time.Duration) { d.SetTombstoneTTL(ttl); m.ttl = ttl }
		setTTL(ttls[1+rng.Intn(len(ttls)-1)])
		now := time.Duration(0)
		record := func() MemberInfo {
			return MemberInfo{
				Node:        ids[rng.Intn(len(ids))],
				Incarnation: uint32(1 + rng.Intn(3)),
				Version:     uint64(rng.Intn(2)),
				Beat:        uint64(rng.Intn(12)),
			}
		}
		for step := 0; step < 300; step++ {
			now += time.Duration(rng.Intn(3)) * 500 * time.Millisecond
			rec := record()
			var op string
			switch r := rng.Intn(30); {
			case r == 0:
				op = "ttl"
				setTTL(ttls[rng.Intn(len(ttls))])
			case r < 10:
				op = "remove"
				if a, b := d.Remove(rec.Node, now), m.remove(rec.Node, now); a != b {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, model %v", seed, step, rec.Node, a, b)
				}
			case r < 14:
				op = "direct"
				if a, b := d.Upsert(rec, OriginDirect, 0, NoNode, now), m.upsert(rec, OriginDirect, 0, NoNode, now); a != b {
					t.Fatalf("seed %d step %d: direct Upsert(%+v) = %v, model %v", seed, step, rec, a, b)
				}
			case r < 22:
				op = "relayed"
				saw[m.outcome(rec.Prefix(), now)]++
				if a, b := d.Upsert(rec, OriginRelayed, 1, 9, now), m.upsert(rec, OriginRelayed, 1, 9, now); a != b {
					t.Fatalf("seed %d step %d: relayed Upsert(%+v) = %v, model %v", seed, step, rec, a, b)
				}
			default:
				op = "merge"
				snapshot := []MemberInfo{rec}
				for i := rng.Intn(6); i > 0; i-- {
					snapshot = append(snapshot, record())
				}
				var joined []MemberInfo
				var tombstoned []NodeID
				invalid := d.MergeRelayed(&sliceSource{infos: snapshot}, 1, 9, now, &joined, &tombstoned)
				wantJoined, wantTombstoned, wantInvalid := m.merge(snapshot, 1, 9, now)
				if !reflect.DeepEqual(joined, wantJoined) || !reflect.DeepEqual(tombstoned, wantTombstoned) || invalid != wantInvalid {
					t.Fatalf("seed %d step %d: merging %+v returned (%v, %v, %d), model (%v, %v, %d)",
						seed, step, snapshot, joined, tombstoned, invalid, wantJoined, wantTombstoned, wantInvalid)
				}
				saw["tombstoned"] += len(tombstoned)
			}
			probe := record()
			if a, b := d.TombstoneActive(probe, now), m.active(probe.Prefix(), now); a != b {
				t.Fatalf("seed %d step %d (after %s): TombstoneActive(%+v) = %v, model %v", seed, step, op, probe, a, b)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (after %s): events %v, model %v", seed, step, op, got, want)
			}
			got, want = got[:0], want[:0]
			for _, id := range ids {
				if a, b := d.Get(id), m.d.Get(id); (a == nil) != (b == nil) || a != nil && *a != *b {
					t.Fatalf("seed %d step %d (after %s): %v's entry %+v, model %+v", seed, step, op, id, a, b)
				}
			}
			if d.Len() != m.d.Len() {
				t.Fatalf("seed %d step %d (after %s): %d members, model %d", seed, step, op, d.Len(), m.d.Len())
			}
		}
	}
	for _, o := range []string{"rejected", "tombstoned", "re-added past expiry", "re-added by a higher incarnation", "re-added by an advanced beat"} {
		if saw[o] == 0 {
			t.Errorf("the generator never produced %q: %v", o, saw)
		}
	}
}

// TestReAddEndsTomb pins the rule the map model departs from: a relayed
// re-add with newer evidence ends the node's tomb, so a stale record that
// follows is a refresh of a present member, not a rejection for the caller
// to correct with a leave.
func TestReAddEndsTomb(t *testing.T) {
	d := NewDirectory(0)
	d.SetTombstoneTTL(10 * time.Second)
	old := MemberInfo{Node: 1, Incarnation: 1, Beat: 7}
	d.Upsert(old, OriginRelayed, 1, 5, 0)
	d.Remove(1, time.Second)
	if !d.Upsert(MemberInfo{Node: 1, Incarnation: 2, Beat: 1}, OriginRelayed, 1, 5, 2*time.Second) {
		t.Fatal("a higher incarnation did not re-add the node")
	}
	var tombstoned []NodeID
	d.MergeRelayed(&sliceSource{infos: []MemberInfo{old}}, 1, 5, 3*time.Second, nil, &tombstoned)
	if len(tombstoned) != 0 || !d.Has(1) || d.Get(1).Incarnation != 2 {
		t.Fatalf("a stale record for the re-added node was reported tombstoned %v; entry %+v", tombstoned, d.Get(1))
	}
}

// TestWildTombsStayBounded: tombs of IDs outside the window live in the
// table's fallback map, and a Remove deletes the expired ones, so removing
// 10 000 distinct such IDs over ten TTLs keeps only the last TTL's worth.
func TestWildTombsStayBounded(t *testing.T) {
	const ttl, step = time.Second, time.Millisecond
	d := NewDirectory(0)
	d.SetTombstoneTTL(ttl)
	now := time.Duration(0)
	for i := 0; i < 10000; i++ {
		id := NodeID(maxDense + i)
		if i%2 == 1 {
			id = NodeID(-1 - i)
		}
		d.Upsert(MemberInfo{Node: id, Incarnation: 1}, OriginRelayed, 1, 1, now)
		if !d.Remove(id, now) {
			t.Fatalf("%v was not present", id)
		}
		now += step
	}
	if n := len(d.entries.wild); n > int(ttl/step) || d.Len() != 0 {
		t.Fatalf("the fallback map keeps %d records after 10 000 removals over %v; want at most %d", n, now, ttl/step)
	}
	if !d.TombstoneActive(MemberInfo{Node: -1 - 9999, Incarnation: 1}, now) {
		t.Fatal("the newest wild tomb was pruned")
	}
}
