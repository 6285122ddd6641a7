package membership

import (
	"reflect"
	"testing"
	"time"
)

func info(n NodeID, svcs ...ServiceDecl) MemberInfo {
	return MemberInfo{Node: n, Services: svcs}
}

func TestUpsertJoinAndEvents(t *testing.T) {
	d := NewDirectory(0)
	var events []Event
	d.AddObserver(func(e Event) { events = append(events, e) })
	if !d.Upsert(info(1), OriginDirect, 0, NoNode, time.Second) {
		t.Fatal("first Upsert should report join")
	}
	if d.Upsert(info(1), OriginDirect, 0, NoNode, 2*time.Second) {
		t.Fatal("second Upsert should not report join")
	}
	if len(events) != 1 || events[0].Type != EventJoin || events[0].Node != 1 || events[0].Time != time.Second {
		t.Fatalf("events = %+v", events)
	}
	if !d.Has(1) || d.Len() != 1 {
		t.Fatal("directory contents wrong")
	}
}

func TestUpsertStaleInfoRefreshesButDoesNotOverwrite(t *testing.T) {
	d := NewDirectory(0)
	fresh := MemberInfo{Node: 1, Incarnation: 2, Version: 3}
	fresh.SetAttr("k", "new")
	d.Upsert(fresh, OriginDirect, 0, NoNode, time.Second)
	stale := MemberInfo{Node: 1, Incarnation: 1, Version: 9}
	stale.SetAttr("k", "old")
	d.Upsert(stale, OriginDirect, 0, NoNode, 5*time.Second)
	e := d.Get(1)
	info := d.Info(e)
	if v, _ := info.Attr("k"); v != "new" {
		t.Fatalf("stale info overwrote newer: %q", v)
	}
	if e.LastRefresh != 5*time.Second {
		t.Fatalf("LastRefresh = %v, want refreshed to 5s", e.LastRefresh)
	}
}

func TestUpsertNewerInfoEmitsUpdate(t *testing.T) {
	d := NewDirectory(0)
	var events []Event
	d.Upsert(MemberInfo{Node: 1, Version: 1}, OriginDirect, 0, NoNode, 0)
	d.AddObserver(func(e Event) { events = append(events, e) })
	d.Upsert(MemberInfo{Node: 1, Version: 2}, OriginDirect, 0, NoNode, time.Second)
	if len(events) != 1 || events[0].Type != EventUpdate {
		t.Fatalf("events = %+v, want one update", events)
	}
}

func TestOriginCustodyFollowsFreshEvidence(t *testing.T) {
	d := NewDirectory(0)
	withBeat := func(n NodeID, beat uint64) MemberInfo {
		m := info(n)
		m.Beat = beat
		return m
	}
	d.Upsert(withBeat(1, 1), OriginRelayed, 2, 7, 0)
	e := d.Get(1)
	if e.Origin != OriginRelayed || e.Relayer != 7 {
		t.Fatalf("entry = %+v", e)
	}
	// Direct writes always take custody and refresh.
	d.Upsert(withBeat(1, 1), OriginDirect, 0, NoNode, time.Second)
	if e.Origin != OriginDirect || e.Relayer != NoNode {
		t.Fatalf("direct write did not take custody: %+v", e)
	}
	// A relayed copy with a stale beat neither refreshes nor takes custody.
	d.Upsert(withBeat(1, 1), OriginRelayed, 2, 9, 2*time.Second)
	if e.Origin != OriginDirect || e.LastRefresh != time.Second {
		t.Fatalf("stale relayed copy refreshed the entry: %+v", e)
	}
	// A relayed copy with an advanced beat does both.
	d.Upsert(withBeat(1, 5), OriginRelayed, 2, 9, 3*time.Second)
	if e.Origin != OriginRelayed || e.Relayer != 9 || e.LastRefresh != 3*time.Second || e.Beat != 5 {
		t.Fatalf("fresh relayed copy ignored: %+v", e)
	}
	// The self entry is never demoted.
	d.Upsert(info(0), OriginSelf, 0, NoNode, 0)
	d.Upsert(withBeat(0, 99), OriginRelayed, 1, 9, time.Second)
	if d.Get(0).Origin != OriginSelf {
		t.Fatal("self entry demoted")
	}
}

func TestTombstonesBlockStaleResurrection(t *testing.T) {
	d := NewDirectory(0)
	d.SetTombstoneTTL(10 * time.Second)
	m := info(1)
	m.Beat = 7
	d.Upsert(m, OriginRelayed, 1, 5, 0)
	d.Remove(1, time.Second)
	// Same beat: rejected.
	if d.Upsert(m, OriginRelayed, 1, 5, 2*time.Second) || d.Has(1) {
		t.Fatal("stale snapshot resurrected a removed node")
	}
	if !d.TombstoneActive(m, 2*time.Second) {
		t.Fatal("tombstone should be active")
	}
	// Advanced beat: accepted (the node is demonstrably alive).
	m2 := m
	m2.Beat = 8
	if !d.Upsert(m2, OriginRelayed, 1, 5, 3*time.Second) {
		t.Fatal("fresh evidence rejected")
	}
	// TTL expiry: after removal again, an old-beat upsert succeeds once the
	// tombstone ages out.
	d.Remove(1, 4*time.Second)
	if !d.Upsert(m2, OriginRelayed, 1, 5, 20*time.Second) {
		t.Fatal("tombstone survived past its TTL")
	}
	// Direct observation clears tombstones outright.
	d.Remove(1, 21*time.Second)
	if !d.Upsert(m2, OriginDirect, 0, NoNode, 22*time.Second) {
		t.Fatal("direct observation blocked by tombstone")
	}
}

func TestRemoveAndEvents(t *testing.T) {
	d := NewDirectory(0)
	d.Upsert(info(1), OriginDirect, 0, NoNode, 0)
	var events []Event
	d.AddObserver(func(e Event) { events = append(events, e) })
	if !d.Remove(1, 3*time.Second) {
		t.Fatal("Remove should report true")
	}
	if d.Remove(1, 4*time.Second) {
		t.Fatal("second Remove should report false")
	}
	if len(events) != 1 || events[0].Type != EventLeave || events[0].Time != 3*time.Second {
		t.Fatalf("events = %+v", events)
	}
}

func TestExpired(t *testing.T) {
	d := NewDirectory(0)
	d.Upsert(info(0), OriginSelf, 0, NoNode, 0) // owner, never expires
	d.Upsert(info(1), OriginDirect, 0, NoNode, 0)
	d.Upsert(info(2), OriginDirect, 0, NoNode, 4*time.Second)
	fixed := func(*Entry) time.Duration { return 5 * time.Second }
	got, next := d.Expired(6*time.Second, fixed)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Expired = %v, want [1]", got)
	}
	if want := 9 * time.Second; next != want {
		t.Fatalf("next deadline = %v, want %v (node 2's)", next, want)
	}
	got, next = d.Expired(20*time.Second, fixed)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Expired = %v, want [1 2] (owner exempt)", got)
	}
	if next != MaxDeadline {
		t.Fatalf("next deadline = %v, want MaxDeadline (all expired)", next)
	}
}

func TestRelayedBy(t *testing.T) {
	d := NewDirectory(0)
	d.Upsert(info(1), OriginRelayed, 1, 5, 0)
	d.Upsert(info(2), OriginRelayed, 1, 5, 0)
	d.Upsert(info(3), OriginRelayed, 1, 6, 0)
	d.Upsert(info(4), OriginDirect, 0, NoNode, 0)
	got := d.RelayedBy(5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RelayedBy(5) = %v", got)
	}
}

func TestSnapshotDeepCopy(t *testing.T) {
	d := NewDirectory(0)
	m := info(1, ServiceDecl{Name: "idx", Partitions: []int32{0}})
	d.Upsert(m, OriginDirect, 0, NoNode, 0)
	snap := d.Snapshot()
	snap[0].Services[0].Partitions[0] = 42
	if d.Info(d.Get(1)).Services[0].Partitions[0] != 0 {
		t.Fatal("Snapshot shares memory with directory")
	}
}

func TestLookupRegexAndPartitions(t *testing.T) {
	d := NewDirectory(0)
	d.Upsert(info(1, ServiceDecl{Name: "Retriever", Partitions: []int32{1, 2, 3}}), OriginDirect, 0, NoNode, 0)
	d.Upsert(info(2, ServiceDecl{Name: "Retriever", Partitions: []int32{4, 5}}), OriginDirect, 0, NoNode, 0)
	d.Upsert(info(3, ServiceDecl{Name: "Cache", Partitions: []int32{1}}), OriginDirect, 0, NoNode, 0)
	d.Upsert(info(4,
		ServiceDecl{Name: "Retriever", Partitions: []int32{2}},
		ServiceDecl{Name: "HTTP", Partitions: []int32{0}, Params: []KV{{"Port", "8080"}}},
	), OriginDirect, 0, NoNode, 0)

	got, err := d.Lookup("Retriever", "1-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 4 {
		t.Fatalf("Lookup(Retriever, 1-3) = %+v", got)
	}
	if !reflect.DeepEqual(got[0].Partitions, []int32{1, 2, 3}) {
		t.Fatalf("matched partitions = %v", got[0].Partitions)
	}

	got, _ = d.Lookup(".*", "*")
	if len(got) != 5 {
		t.Fatalf("wildcard lookup returned %d matches, want 5", len(got))
	}

	got, _ = d.Lookup("Retr.*|Cache", "1")
	if len(got) != 2 { // Cache(n3) + Retriever(n1)
		t.Fatalf("alternation lookup = %+v", got)
	}

	// Anchored: "Retr" must not match "Retriever".
	got, _ = d.Lookup("Retr", "*")
	if len(got) != 0 {
		t.Fatalf("unanchored match leaked: %+v", got)
	}

	if _, err := d.Lookup("(", "*"); err == nil {
		t.Fatal("want error for bad regex")
	}
	if _, err := d.Lookup(".*", "x"); err == nil {
		t.Fatal("want error for bad partition spec")
	}

	// Params and attrs surface in matches.
	got, _ = d.Lookup("HTTP", "*")
	if len(got) != 1 || len(got[0].Params) != 1 || got[0].Params[0].Value != "8080" {
		t.Fatalf("params not surfaced: %+v", got)
	}
}

func TestNodesSorted(t *testing.T) {
	d := NewDirectory(0)
	for _, n := range []NodeID{5, 1, 3} {
		d.Upsert(info(n), OriginDirect, 0, NoNode, 0)
	}
	got := d.Nodes()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Nodes = %v", got)
	}
}
