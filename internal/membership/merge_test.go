package membership

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// sliceSource is a RelayedSource over materialised records. beat, when
// non-zero, overrides every record's beat, so one slice can stand for a
// publisher whose snapshot advances from round to round; clone makes Info
// allocate a fresh copy, as a decoder does.
type sliceSource struct {
	infos []MemberInfo
	next  int
	beat  uint64
	clone bool
	fulls int // Info calls
}

func (s *sliceSource) Next() bool { s.next++; return s.next <= len(s.infos) }

func (s *sliceSource) Prefix() InfoPrefix {
	p := s.infos[s.next-1].Prefix()
	if s.beat != 0 {
		p.Beat = s.beat
	}
	return p
}

func (s *sliceSource) Info() MemberInfo {
	s.fulls++
	if s.clone {
		return s.infos[s.next-1].Clone()
	}
	return s.infos[s.next-1]
}

// referenceMerge is the receive loop MergeRelayed replaced, verbatim: every
// record materialised, TombstoneActive then Upsert, one at a time.
func referenceMerge(d *Directory, infos []MemberInfo, level int, relayer NodeID, now time.Duration) (joined []MemberInfo, tombstoned []NodeID, invalid int) {
	for _, info := range infos {
		if info.Node == d.owner {
			continue
		}
		if info.Node < 0 {
			invalid++
			continue
		}
		if d.TombstoneActive(info, now) {
			tombstoned = append(tombstoned, info.Node)
			continue
		}
		if d.Upsert(info, OriginRelayed, level, relayer, now) {
			joined = append(joined, info)
		}
	}
	return joined, tombstoned, invalid
}

// randomRecord draws a record for one of a few dozen IDs — mostly small
// ones that collide, some in far chunks, some outside the direct-indexed
// window, some negative — with counters low enough that older, equal and
// newer offers all occur.
func randomRecord(rng *rand.Rand) MemberInfo {
	ids := []NodeID{0, 1, 2, 3, 5, 8, 15, 16, 17, 31, 32, 100, 999, 1000, 4095, maxDense - 1, maxDense, maxDense + 7, 1 << 30, -1, -2, -70000}
	m := MemberInfo{
		Node:        ids[rng.Intn(len(ids))],
		Incarnation: uint32(1 + rng.Intn(3)),
		Version:     uint64(rng.Intn(3)),
		Beat:        uint64(rng.Intn(40)),
	}
	if rng.Intn(2) == 0 {
		m.Services = []ServiceDecl{{
			Name:       fmt.Sprint("svc", rng.Intn(3)),
			Partitions: []int32{rng.Int31n(8)},
			Params:     []KV{{Key: "Port", Value: fmt.Sprint(rng.Intn(9000))}},
		}}
		m.SetAttr("mem", fmt.Sprint(rng.Intn(64), "G"))
	}
	return m
}

// TestMergeRelayedMatchesUpsertLoop is the differential property: over
// random histories (self entry, direct and relayed upserts, removals that
// leave tombstones, tombstones that expire) and random snapshots, the batch
// merge leaves a directory deeply equal to the one the record-at-a-time
// loop leaves — storage, order index, tombstones and the recorded event
// sequence — returns the same lists, and asks for a full record exactly
// once per join and per content update.
func TestMergeRelayedMatchesUpsertLoop(t *testing.T) {
	var sawJoins, sawTombstoned, sawInvalid, sawUpdates int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const owner = 3
		a, b := NewDirectory(owner), NewDirectory(owner)
		var aEvents, bEvents []Event
		a.AddObserver(func(e Event) { aEvents = append(aEvents, e) })
		b.AddObserver(func(e Event) { bEvents = append(bEvents, e) })
		now := time.Duration(0)
		both := func(fn func(d *Directory)) { fn(a); fn(b) }
		both(func(d *Directory) {
			if seed%4 != 0 {
				d.SetTombstoneTTL(10 * time.Second)
			}
			d.Upsert(MemberInfo{Node: owner, Incarnation: 1}, OriginSelf, 0, NoNode, now)
		})
		for round := 0; round < 6; round++ {
			for i := rng.Intn(30); i > 0; i-- {
				now += time.Duration(rng.Intn(800)) * time.Millisecond
				rec, op := randomRecord(rng), rng.Intn(4)
				both(func(d *Directory) {
					switch op {
					case 0:
						d.Upsert(rec, OriginDirect, 0, NoNode, now)
					case 1:
						d.Upsert(rec, OriginRelayed, 1, 8, now)
					default:
						d.Remove(rec.Node, now)
					}
				})
			}
			snapshot := make([]MemberInfo, rng.Intn(40))
			for i := range snapshot {
				snapshot[i] = randomRecord(rng)
			}
			if rng.Intn(2) == 0 {
				snapshot = append(snapshot, MemberInfo{Node: owner, Incarnation: 9, Beat: 99})
			}
			now += time.Duration(rng.Intn(3000)) * time.Millisecond
			level, relayer := rng.Intn(3), NodeID(rng.Intn(20))

			events := len(aEvents)
			src := &sliceSource{infos: snapshot}
			var joined []MemberInfo
			var tombstoned []NodeID
			invalid := a.MergeRelayed(src, level, relayer, now, &joined, &tombstoned)
			wantJoined, wantTombstoned, wantInvalid := referenceMerge(b, snapshot, level, relayer, now)

			if !reflect.DeepEqual(joined, wantJoined) || !reflect.DeepEqual(tombstoned, wantTombstoned) || invalid != wantInvalid {
				t.Fatalf("seed %d round %d: merge returned (%v, %v, %d), loop returned (%v, %v, %d)",
					seed, round, joined, tombstoned, invalid, wantJoined, wantTombstoned, wantInvalid)
			}
			if !reflect.DeepEqual(aEvents, bEvents) {
				t.Fatalf("seed %d round %d: events differ after merging %v\nmerge: %v\n loop: %v", seed, round, snapshot, aEvents, bEvents)
			}
			// Func values are never deeply equal, so the observers sit out
			// the comparison of the directories.
			aObs, bObs := a.observer, b.observer
			a.observer, b.observer = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d round %d: directories differ after merging %v\nmerge: %+v\n loop: %+v", seed, round, snapshot, a, b)
			}
			a.observer, b.observer = aObs, bObs
			checkContents(t, a)
			updates := 0
			for _, e := range aEvents[events:] {
				if e.Type == EventUpdate {
					updates++
				}
			}
			if src.fulls != len(joined)+updates {
				t.Fatalf("seed %d round %d: %d full records requested for %d joins and %d updates", seed, round, src.fulls, len(joined), updates)
			}
			sawJoins, sawTombstoned, sawInvalid, sawUpdates = sawJoins+len(joined), sawTombstoned+len(tombstoned), sawInvalid+invalid, sawUpdates+updates
		}
	}
	if sawJoins == 0 || sawTombstoned == 0 || sawInvalid == 0 || sawUpdates == 0 {
		t.Fatalf("the generator never produced one of the outcomes: %d joins, %d tombstoned, %d invalid, %d updates",
			sawJoins, sawTombstoned, sawInvalid, sawUpdates)
	}
}

// checkContents holds the two tables to each other: an entry's content bit
// is set exactly when the content table has a record for it, and the content
// table has no record, and no chunk, that no entry claims.
func checkContents(t *testing.T, d *Directory) {
	t.Helper()
	d.Range(func(id NodeID, e *Entry) {
		if c := d.contents.Get(id); e.content != (c != nil && contentInUse(c)) {
			t.Fatalf("%v: content bit %v, content record %+v", id, e.content, c)
		}
	})
	d.contents.Each(func(id NodeID, c *content) {
		if e := d.Get(id); contentInUse(c) && (e == nil || !e.content) {
			t.Fatalf("%v: content %+v kept for entry %+v", id, *c, e)
		}
	})
	for ci, c := range d.contents.chunks {
		if c != nil && !slices.ContainsFunc(c[:], func(c content) bool { return contentInUse(&c) }) {
			t.Fatalf("content chunk %d kept with nothing in it", ci)
		}
	}
}

// TestEntryPointersStableWhilePresent: the *Entry that Get and Range hand
// out stays the node's entry — same address, same content — while other
// nodes join (growing the chunk table) and leave (emptying neighbouring
// slots and whole chunks).
func TestEntryPointersStableWhilePresent(t *testing.T) {
	d := NewDirectory(0)
	kept := []NodeID{0, 7, 15, 16, 999, maxDense - 1, maxDense + 5, -4}
	held := make(map[NodeID]*Entry)
	for _, id := range kept {
		d.Upsert(MemberInfo{Node: id, Incarnation: 2, Version: uint64(id) & 0xff}, OriginRelayed, 1, 9, time.Second)
		held[id] = d.Get(id)
	}
	check := func(when string) {
		t.Helper()
		for _, id := range kept {
			e := d.Get(id)
			if e != held[id] {
				t.Fatalf("%s: entry of %v moved from %p to %p", when, id, held[id], e)
			}
			if e.Node != id || e.Incarnation != 2 || e.Version != uint64(id)&0xff || e.Relayer != 9 {
				t.Fatalf("%s: entry of %v now reads %+v", when, id, *e)
			}
		}
		seen := 0
		d.Range(func(id NodeID, e *Entry) {
			if want, ok := held[id]; ok {
				seen++
				if e != want {
					t.Fatalf("%s: Range hands out %p for %v, Get handed out %p", when, e, id, want)
				}
			}
		})
		if seen != len(kept) {
			t.Fatalf("%s: Range visited %d of the %d kept nodes", when, seen, len(kept))
		}
	}
	var others []NodeID
	for id := NodeID(1); id < 3000; id += 3 {
		if held[id] == nil {
			others = append(others, id)
		}
	}
	others = append(others, maxDense-2, maxDense+6, -5)
	for _, id := range others {
		d.Upsert(MemberInfo{Node: id, Incarnation: 1}, OriginDirect, 0, NoNode, 2*time.Second)
	}
	check("after joins")
	for _, id := range others {
		d.Remove(id, 3*time.Second)
	}
	check("after removals")
	if d.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(kept))
	}
}

// TestWildIDsCostBoundedStorage: an ID anywhere in the direct-indexed window
// costs one chunk and a table that never outgrows the window, IDs outside
// it cost a map entry, and the storage goes when the node does.
func TestWildIDsCostBoundedStorage(t *testing.T) {
	d := NewDirectory(0)
	chunks := func() (n int) {
		for _, c := range d.entries.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	wild := []NodeID{maxDense - 1, 40000, 40001, maxDense, 1<<31 - 1, -1, -1 << 31}
	for _, id := range wild {
		d.Upsert(MemberInfo{Node: id}, OriginRelayed, 0, 1, 0)
	}
	if got := chunks(); got != 2 || len(d.entries.chunks) > maxDense/chunkLen || len(d.entries.wild) != 4 {
		t.Fatalf("%d chunks in a table of %d and %d map entries for %v", got, len(d.entries.chunks), len(d.entries.wild), wild)
	}
	for _, id := range wild {
		if !d.Has(id) || !d.Remove(id, time.Second) || d.Has(id) {
			t.Fatalf("wild ID %v did not survive a join/remove cycle", id)
		}
	}
	if chunks() != 0 || len(d.entries.wild) != 0 || d.Len() != 0 {
		t.Fatalf("%d chunks, %d map entries, Len %d left behind", chunks(), len(d.entries.wild), d.Len())
	}
}

// warmDirectory1000 returns a directory that already holds what the
// returned source republishes, and the source.
func warmDirectory1000() (*Directory, *sliceSource) {
	d := NewDirectory(0)
	src := &sliceSource{infos: make([]MemberInfo, 1000)}
	for i := range src.infos {
		src.infos[i] = MemberInfo{Node: NodeID(i), Incarnation: 1, Beat: 7}
		d.Upsert(src.infos[i], OriginRelayed, 1, 1, 0)
	}
	return d, src
}

// republish replays the source's snapshot with every beat at the given
// value: the steady state of anti-entropy, where each record is a known
// node whose liveness counter moved.
func (s *sliceSource) republish(d *Directory, beat uint64) {
	s.next, s.beat = 0, beat
	if n := d.Len(); d.MergeRelayed(s, 1, 1, time.Duration(beat)*time.Second, nil, nil) != 0 || d.Len() != n {
		panic("steady-state republish changed membership")
	}
}

func TestMergeRelayedSteadyStateDoesNotAllocate(t *testing.T) {
	d, src := warmDirectory1000()
	beat := uint64(8)
	allocs := testing.AllocsPerRun(50, func() {
		src.republish(d, beat)
		beat++
	})
	if allocs != 0 {
		t.Fatalf("merging a 1000-record republish allocates %.1f per snapshot, want 0", allocs)
	}
	if e := d.Get(999); e.Beat != beat-1 || e.LastRefresh != time.Duration(beat-1)*time.Second {
		t.Fatalf("the merges did not refresh: %+v", *e)
	}
}

// cloneSink keeps a measured Clone from being optimised away.
var cloneSink MemberInfo

// TestMergeRelayedJoinAllocatesOnlyRecords: a merge that re-adds half of a
// warm 1000-member directory, a quarter of the returning members with
// services and attributes, and whose caller collects nothing — gossip's —
// allocates what materialising those records allocates and nothing more: no
// join list, no index, no storage while a chunk mate stays.
func TestMergeRelayedJoinAllocatesOnlyRecords(t *testing.T) {
	d := NewDirectory(NoNode)
	src := &sliceSource{infos: make([]MemberInfo, 1000), clone: true}
	rich := 0
	for i := range src.infos {
		m := MemberInfo{Node: NodeID(i), Incarnation: 1, Beat: 7}
		if i%8 < 2 {
			m.Services = []ServiceDecl{{Name: "app", Partitions: []int32{int32(i % 5)}}}
			m.SetAttr("mem", "2G")
			rich += i % 2
		}
		src.infos[i] = m
		d.Upsert(m, OriginRelayed, 0, 1, 0)
	}
	perRecord := testing.AllocsPerRun(10, func() { cloneSink = src.infos[1].Clone() })
	if perRecord == 0 || testing.AllocsPerRun(10, func() { cloneSink = src.infos[2].Clone() }) != 0 {
		t.Fatal("fixture: a rich record must cost allocations to materialise and a plain one none")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for id := NodeID(1); id < 1000; id += 2 {
			d.Remove(id, 0)
		}
		src.next = 0
		if d.MergeRelayed(src, 0, 1, 0, nil, nil) != 0 || d.Len() != 1000 {
			t.Fatalf("the merge left %d members", d.Len())
		}
	})
	if want := float64(rich) * perRecord; allocs != want {
		t.Fatalf("re-adding 500 members, %d of them rich, allocates %.1f per merge; materialising them costs %.1f", rich, allocs, want)
	}
	checkContents(t, d)
}

// TestEntryLayout is the gate on the directory's hot record: at most 40
// bytes and no pointer, so four of them are a 160-byte chunk the collector
// never scans. A field that breaks either fails here instead of silently
// making every directory's chunks scannable again.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size > 40 {
		t.Fatalf("Entry is %d bytes, want at most 40", size)
	}
	if path := pointerIn(reflect.TypeOf(Entry{}), "Entry"); path != "" {
		t.Fatalf("Entry holds a pointer at %s", path)
	}
}

// pointerIn returns the path of the first value in a t that is or holds a
// pointer, or "" when there is none.
func pointerIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return pointerIn(t.Elem(), path+"[0]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerIn(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// TestDirectoryHotPathsDoNotAllocate carries the allocation ceilings of what
// every heartbeat and tracker tick does to a warm 1000-member directory: a
// direct Upsert that advances a known member's beat, a full Range, an
// Expired sweep with nothing to expire, and a member's removal and relayed
// re-add, each the first in its directory (a tomb costs nothing to lay).
func TestDirectoryHotPathsDoNotAllocate(t *testing.T) {
	d, _ := warmDirectory1000()
	id, beat, visited := NodeID(0), uint64(8), 0
	churned := make([]*Directory, 101) // one per call: AllocsPerRun(100) warms up with one more
	for i := range churned {
		churned[i], _ = warmDirectory1000()
		churned[i].SetTombstoneTTL(time.Hour)
	}
	paths := []struct {
		name string
		fn   func()
	}{
		{"Upsert of a known member's next beat", func() {
			d.Upsert(MemberInfo{Node: id, Incarnation: 1, Beat: beat}, OriginDirect, 0, NoNode, time.Duration(beat))
			if id++; id == 1000 {
				id, beat = 0, beat+1
			}
		}},
		{"Range", func() { d.Range(func(NodeID, *Entry) { visited++ }) }},
		{"Expired with nothing to expire", func() {
			if stale, _ := d.Expired(time.Second, func(*Entry) time.Duration { return time.Hour }); stale != nil {
				t.Fatalf("expired %v", stale)
			}
		}},
		{"Remove, then relayed re-add, of a warm member", func() {
			c := churned[0]
			churned = churned[1:]
			if !c.Remove(500, time.Second) || !c.Upsert(MemberInfo{Node: 500, Incarnation: 1, Beat: 8}, OriginRelayed, 1, 1, time.Second) || c.Len() != 1000 {
				t.Fatal("the member did not leave and return")
			}
		}},
	}
	for _, p := range paths {
		if allocs := testing.AllocsPerRun(100, p.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", p.name, allocs)
		}
	}
	if e := d.Get(0); visited == 0 || e.Beat != 8 || e.Origin != OriginDirect {
		t.Fatalf("the upserts did not land: %+v after visiting %d", *e, visited)
	}
}

// BenchmarkMergeRelayed1000 is one receiver's cost of one republish from a
// leader at N=1000, decoding excluded.
func BenchmarkMergeRelayed1000(b *testing.B) {
	d, src := warmDirectory1000()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.republish(d, uint64(8+i))
	}
}
