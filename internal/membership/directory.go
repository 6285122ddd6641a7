package membership

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"time"
)

// Origin says how a directory entry was learned, which determines its
// lifetime under the paper's Timeout Protocol: entries heard directly decay
// on their own heartbeat timeout; entries relayed by a group leader live
// exactly as long as the relaying leader does.
type Origin uint8

const (
	// OriginSelf is the node's own entry; it never expires.
	OriginSelf Origin = iota
	// OriginDirect entries were heard on a multicast channel the node has
	// joined (heartbeats from group mates at some level).
	OriginDirect
	// OriginRelayed entries arrived in update/bootstrap/sync messages
	// relayed by a group leader.
	OriginRelayed
)

func (o Origin) String() string {
	switch o {
	case OriginSelf:
		return "self"
	case OriginDirect:
		return "direct"
	case OriginRelayed:
		return "relayed"
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Entry is one row of the yellow-page directory: a member's aliveness, the
// part every merge, refresh, expiry sweep and audit reads. It is 40 bytes
// with no pointer, so the directory's chunks of them are objects the
// collector never scans. What the member publishes beyond its prefix —
// services and attributes, the paper's "relatively stable information" —
// is held apart and read with Directory.Content.
type Entry struct {
	// InfoPrefix is the member's identity and counters. Beat is the
	// freshest liveness beat the holder has seen, which a relayed copy
	// must advance to count as evidence of life.
	InfoPrefix
	// The fields below are per-holder bookkeeping, not part of the
	// propagated information.
	//
	// LastRefresh is the holder's clock when the entry was last confirmed.
	LastRefresh time.Duration
	// Relayer is the group mate this entry was most recently refreshed by
	// (for relayed entries), else NoNode.
	Relayer NodeID
	// Level is the tree level (for direct entries, the lowest channel the
	// member was heard on; for relayed entries, the level whose leader
	// relayed it).
	Level  uint8
	Origin Origin
	// state says what the slot of the directory's by-value storage holds
	// (slotFree, slotLive or slotTomb), and content marks a member that
	// publishes services or attributes; both sit in what would be padding.
	state   uint8
	content bool
}

// The states of an entry slot. A tomb is a removed member's slot kept while
// tombstones are enabled: its InfoPrefix is the (incarnation, beat) the
// member had at removal, and its LastRefresh the removal time.
const (
	slotFree uint8 = iota
	slotLive
	slotTomb
)

// content is the stable half of a member's record. The directory keeps one
// only for a member whose record carries services or attributes, so a
// cluster that publishes liveness alone allocates none.
type content struct {
	services []ServiceDecl
	attrs    []KV
}

func contentInUse(c *content) bool { return c.services != nil || c.attrs != nil }

func entryInUse(e *Entry) bool { return e.state != slotFree }

// EventType classifies directory change notifications.
type EventType uint8

const (
	// EventJoin fires when a node appears in the directory.
	EventJoin EventType = iota
	// EventLeave fires when a node is removed (failure or departure).
	EventLeave
	// EventUpdate fires when a present node's info changes.
	EventUpdate
)

func (e EventType) String() string {
	switch e {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventUpdate:
		return "update"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Event is a directory change notification.
type Event struct {
	Type EventType
	Node NodeID
	Time time.Duration
}

// Directory is one node's yellow-page view of the cluster. It is driven by
// a single goroutine (the simulation loop, or the wall-clock driver of
// examples/realudp) and is not locked: clients read it on that goroutine.
type Directory struct {
	owner NodeID
	// entries holds every entry by value (see Table): a merge in ascending
	// ID order streams through memory instead of chasing one heap object per
	// entry, and *Entry stays valid while its node is present. A slot holds
	// a member when its state is slotLive and a tombstone when it is
	// slotTomb. contents holds, by the same key, the content of the entries
	// whose content bit is set.
	entries  Table[Entry]
	contents Table[content]
	size     int           // live entries
	tombTTL  time.Duration // 0 disables tombstones
	// tombFloor is the latest (now - tombTTL) of any Remove that laid a
	// tomb: a tomb laid at or before it has expired once and stays expired
	// whatever the TTL becomes later.
	tombFloor time.Duration
	observer  func(Event)
}

// NewDirectory creates a directory owned by node owner.
func NewDirectory(owner NodeID) *Directory {
	return &Directory{owner: owner, tombFloor: math.MinInt64}
}

// SetTombstoneTTL enables rejection of relayed re-additions of removed
// nodes for ttl after removal. Zero disables.
func (d *Directory) SetTombstoneTTL(ttl time.Duration) { d.tombTTL = ttl }

// TombstoneActive reports whether a relayed upsert of this info would
// currently be rejected: the node was removed recently and the offered copy
// carries no newer evidence of life (no higher incarnation and no further
// advanced heartbeat counter than we saw at removal time).
func (d *Directory) TombstoneActive(info MemberInfo, now time.Duration) bool {
	e := d.entries.Get(info.Node)
	return e != nil && d.tombHolds(e, info.Prefix(), now)
}

// tombHolds reports whether slot e is a tomb that rejects a relayed record
// with prefix p at now. Expiry is read here, from the tomb's removal time
// and the TTL in force, so no sweep deletes expired tombs; a tomb ends when
// an insert overwrites its slot.
func (d *Directory) tombHolds(e *Entry, p InfoPrefix, now time.Duration) bool {
	return e.state == slotTomb && d.tombTTL > 0 && e.LastRefresh > d.tombFloor && now-e.LastRefresh < d.tombTTL &&
		p.Incarnation <= e.Incarnation && p.Beat <= e.Beat
}

// expiredTomb reports whether e is a tomb that no TTL can bring back.
func (d *Directory) expiredTomb(e *Entry) bool {
	return e.state == slotTomb && e.LastRefresh <= d.tombFloor
}

// AddObserver chains fn after every observer already installed, so several
// consumers (a harness timestamping views, the invariant auditor's
// event-driven hooks) can watch the same directory without clobbering each
// other. Observers cannot be removed. Events are emitted after the mutation
// they describe, so fn may call Get/Has on the directory.
func (d *Directory) AddObserver(fn func(Event)) {
	if prev := d.observer; prev != nil {
		d.observer = func(e Event) {
			prev(e)
			fn(e)
		}
		return
	}
	d.observer = fn
}

func (d *Directory) emit(t EventType, n NodeID, now time.Duration) {
	if d.observer != nil {
		d.observer(Event{Type: t, Node: n, Time: now})
	}
}

func (d *Directory) get(n NodeID) *Entry {
	if e := d.entries.Get(n); e != nil && e.state == slotLive {
		return e
	}
	return nil
}

// insert stores a new entry for a node known to be absent and announces the
// join. e is the node's slot, free or a tomb, or nil when it has none; the
// new entry overwrites a tomb.
func (d *Directory) insert(e *Entry, info *MemberInfo, origin Origin, level int, relayer NodeID, now time.Duration) {
	if e == nil {
		e = d.entries.Ensure(info.Node)
	}
	*e = Entry{
		InfoPrefix: info.Prefix(), LastRefresh: now, Relayer: relayer,
		Level: uint8(level), Origin: origin, state: slotLive,
	}
	d.setContent(e, info)
	d.size++
	d.emit(EventJoin, info.Node, now)
}

// setContent makes info's services and attributes e's content, holding them
// only if there are any.
func (d *Directory) setContent(e *Entry, info *MemberInfo) {
	had := e.content
	e.content = len(info.Services) > 0 || len(info.Attrs) > 0
	if e.content {
		*d.contents.Ensure(e.Node) = content{services: info.Services, attrs: info.Attrs}
	} else if had {
		d.contents.Delete(e.Node, contentInUse)
	}
}

// Content returns the services and attributes the member behind e, one of
// this directory's entries, publishes: every read of a member's content goes
// through here. The slices are the directory's own; a caller that keeps or
// changes them clones first.
func (d *Directory) Content(e *Entry) ([]ServiceDecl, []KV) {
	if !e.content {
		return nil, nil
	}
	c := d.contents.Get(e.Node)
	return c.services, c.attrs
}

// Info returns the whole record behind e: its prefix and its Content.
func (d *Directory) Info(e *Entry) MemberInfo {
	services, attrs := d.Content(e)
	return MemberInfo{
		Node: e.Node, Incarnation: e.Incarnation, Version: e.Version, Beat: e.Beat,
		Services: services, Attrs: attrs,
	}
}

// Len returns the number of known-alive nodes (including the owner if
// present).
func (d *Directory) Len() int { return d.size }

// Has reports whether node n is currently in the directory.
func (d *Directory) Has(n NodeID) bool { return d.get(n) != nil }

// Get returns the entry for n, or nil.
func (d *Directory) Get(n NodeID) *Entry { return d.get(n) }

// Upsert merges info into the directory. The entry's origin bookkeeping is
// set from the arguments. Stale info (older incarnation/version for a
// present node) refreshes liveness but does not overwrite newer info.
// It returns true if this was a new node (a join).
func (d *Directory) Upsert(info MemberInfo, origin Origin, level int, relayer NodeID, now time.Duration) bool {
	e := d.entries.Get(info.Node)
	if e == nil || e.state != slotLive {
		// Direct observation proves liveness and overwrites any tomb.
		if origin == OriginRelayed && d.TombstoneActive(info, now) {
			return false
		}
		d.insert(e, &info, origin, level, relayer, now)
		return true
	}
	if d.refresh(e, info.Prefix(), origin, level, relayer, now) {
		d.replace(e, &info, now)
	}
	return false
}

// refresh applies the fixed fields of an offered record to a present entry —
// liveness, origin custody, beat — and reports whether the record's content
// supersedes the stored one, in which case the caller follows with replace.
// Every merge decision is made on the prefix alone, which is what lets
// MergeRelayed leave the rest of a record undecoded.
func (d *Directory) refresh(e *Entry, p InfoPrefix, origin Origin, level int, relayer NodeID, now time.Duration) (newer bool) {
	newer = p.Newer(e.InfoPrefix)
	// Liveness: a direct observation always refreshes; a relayed copy only
	// refreshes if it carries evidence of life we have not seen — an
	// advanced heartbeat counter or newer content. A stale snapshot
	// circulating among leaders therefore cannot keep a dead node alive.
	if origin != OriginRelayed || p.Beat > e.Beat || newer {
		e.LastRefresh = now
		// Last writer with fresh evidence takes origin custody; the self
		// entry is never demoted.
		if e.Origin != OriginSelf {
			e.Origin, e.Level, e.Relayer = origin, uint8(level), relayer
		}
	}
	// Keep the stored beat current even when the content is not newer, so
	// snapshots we publish carry the freshest liveness evidence we hold
	// rather than the beat at entry creation.
	e.Beat = max(e.Beat, p.Beat)
	return newer
}

// replace installs superseding content for a present entry, keeping the
// freshest beat seen.
func (d *Directory) replace(e *Entry, info *MemberInfo, now time.Duration) {
	e.Incarnation, e.Version, e.Beat = info.Incarnation, info.Version, max(e.Beat, info.Beat)
	d.setContent(e, info)
	d.emit(EventUpdate, info.Node, now)
}

// RelayedSource streams the records of one relayed snapshot in the order
// its publisher wrote them. Next advances to the following record and
// reports whether there is one; Prefix and Info then describe it. Prefix is
// free; Info materialises the whole record and may allocate.
type RelayedSource interface {
	Next() bool
	Prefix() InfoPrefix
	Info() MemberInfo
}

// MergeRelayed applies a whole relayed snapshot — a leader's bootstrap or
// sync reply, its periodic republication, or a gossip peer's view (where the
// relayer is the gossiping peer) — with the semantics and event
// order of one relayed Upsert per record, asking src for a full record only
// when the node is new or the offered content is newer. In steady state
// nearly every record is a beat refresh of a known node, so the merge reads
// 24 bytes per record from src, writes a few words of the entry, and
// allocates nothing.
//
// Records about the owner are skipped. The records that added a node are
// appended to *joined, and the nodes whose record was rejected because the
// node was removed recently and the record carries no newer evidence of
// life (the publisher holds a stale entry) to *tombstoned; a caller that
// does not act on one of them passes nil. invalid counts records with a
// negative ID, which cannot name a member and are dropped.
func (d *Directory) MergeRelayed(src RelayedSource, level int, relayer NodeID, now time.Duration, joined *[]MemberInfo, tombstoned *[]NodeID) (invalid int) {
	for src.Next() {
		p := src.Prefix()
		if p.Node == d.owner {
			continue
		}
		if p.Node < 0 {
			invalid++
			continue
		}
		// One lookup decides the record: a live entry is refreshed, a holding
		// tomb rejects it, and anything else is a join.
		e := d.entries.Get(p.Node)
		switch {
		case e != nil && e.state == slotLive:
			if d.refresh(e, p, OriginRelayed, level, relayer, now) {
				info := src.Info()
				d.replace(e, &info, now)
			}
		case e != nil && d.tombHolds(e, p, now):
			if tombstoned != nil {
				*tombstoned = append(*tombstoned, p.Node)
			}
		default:
			info := src.Info()
			d.insert(e, &info, OriginRelayed, level, relayer, now)
			if joined != nil {
				*joined = append(*joined, info)
			}
		}
	}
	return invalid
}

// Remove deletes node n; reports whether it was present. When tombstones
// are enabled, n's slot becomes a tomb so stale relayed snapshots cannot
// resurrect the node: only a higher incarnation (a real restart), an
// advanced beat, or direct observation (we hear its heartbeats, so it is
// alive) re-adds it, and the re-add ends the tomb. A chunk holding a tomb is
// not freed; out-of-window tombs that have expired are deleted here, which
// keeps the table's fallback map bounded.
func (d *Directory) Remove(n NodeID, now time.Duration) bool {
	e := d.get(n)
	if e == nil {
		return false
	}
	if e.content {
		d.contents.Delete(n, contentInUse)
	}
	if d.tombTTL > 0 {
		*e = Entry{InfoPrefix: e.InfoPrefix, LastRefresh: now, state: slotTomb}
		d.tombFloor = max(d.tombFloor, now-d.tombTTL)
		d.entries.DeleteWild(d.expiredTomb)
	} else {
		d.entries.Delete(n, entryInUse)
	}
	d.size--
	d.emit(EventLeave, n, now)
	return true
}

// Nodes returns the known node IDs in ascending order.
func (d *Directory) Nodes() []NodeID {
	var out []NodeID
	if d.size > 0 {
		out = make([]NodeID, 0, d.size)
	}
	d.Range(func(n NodeID, _ *Entry) { out = append(out, n) })
	return out
}

// Range calls fn for every entry in ascending node order without allocating
// — the auditor walks every directory every sampling tick, so the copy
// Nodes() makes matters there. fn must not add or remove entries.
func (d *Directory) Range(fn func(NodeID, *Entry)) {
	d.entries.Each(func(n NodeID, e *Entry) {
		if e.state == slotLive {
			fn(n, e)
		}
	})
}

// Snapshot returns deep copies of all member infos, in node order, for
// consumers that keep them (the directory IPC server). The protocols' own
// packets — tree snapshots, gossip views, rapid view changes — are encoded
// straight from the entries and never pass through here.
func (d *Directory) Snapshot() []MemberInfo {
	out := make([]MemberInfo, 0, d.size)
	d.Range(func(_ NodeID, e *Entry) { out = append(out, d.Info(e).Clone()) })
	return out
}

// Expired returns, in ascending order, the nodes whose entries have not
// been refreshed within their timeout, given a per-entry timeout function.
// The owner's own entry never expires. The second result is the earliest
// future instant any surviving entry could expire (MaxDeadline when none
// can): refreshes only push deadlines later and new entries start fresh, so
// the caller may skip every scan before that instant — the sweep stays
// O(directory) but runs only when it can find something.
func (d *Directory) Expired(now time.Duration, timeout func(*Entry) time.Duration) ([]NodeID, time.Duration) {
	var out []NodeID
	next := MaxDeadline
	d.Range(func(n NodeID, e *Entry) {
		if n == d.owner || e.Origin == OriginSelf {
			return
		}
		deadline := e.LastRefresh + timeout(e)
		if deadline < now {
			out = append(out, n)
		} else if deadline < next {
			next = deadline
		}
	})
	return out, next
}

// MaxDeadline is the "never" sentinel returned by Expired when no current
// entry has a future expiry deadline.
const MaxDeadline = time.Duration(1<<63 - 1)

// RelayedBy returns, in ascending order, the nodes whose entries were
// learned via relayer.
func (d *Directory) RelayedBy(relayer NodeID) []NodeID {
	var out []NodeID
	d.Range(func(n NodeID, e *Entry) {
		if e.Origin == OriginRelayed && e.Relayer == relayer {
			out = append(out, n)
		}
	})
	return out
}

// Match describes one node matched by a Lookup.
type Match struct {
	Node       NodeID
	Service    string
	Partitions []int32 // the matching partitions hosted by this node
	Params     []KV
	Attrs      []KV
}

// Lookup implements the paper's lookup_service: servicePattern is a regular
// expression matched against service names (anchored), and partitionSpec is
// either "*" / "" (any partition) or a ParsePartitions list of desired
// partitions. A node matches if it hosts a matching service with at least
// one desired partition. Results are ordered by (service, node). Only a
// member that publishes something can match, so the query walks the content
// table alone.
func (d *Directory) Lookup(servicePattern, partitionSpec string) ([]Match, error) {
	re, err := regexp.Compile("^(?:" + servicePattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("membership: bad service pattern: %w", err)
	}
	var want map[int32]bool
	if partitionSpec != "" && partitionSpec != "*" {
		parts, err := ParsePartitions(partitionSpec)
		if err != nil {
			return nil, err
		}
		want = make(map[int32]bool, len(parts))
		for _, p := range parts {
			want[p] = true
		}
	}
	var out []Match
	d.contents.Each(func(n NodeID, c *content) {
		for _, svc := range c.services {
			if !re.MatchString(svc.Name) {
				continue
			}
			var matched []int32
			if want == nil {
				matched = append([]int32(nil), svc.Partitions...)
			} else {
				for _, p := range svc.Partitions {
					if want[p] {
						matched = append(matched, p)
					}
				}
				if len(matched) == 0 {
					continue
				}
			}
			out = append(out, Match{
				Node:       n,
				Service:    svc.Name,
				Partitions: matched,
				Params:     append([]KV(nil), svc.Params...),
				Attrs:      append([]KV(nil), c.attrs...),
			})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

// Hosts appends to dst, in ascending node order, the nodes hosting the
// service named exactly name — on partition when it is non-negative, on any
// partition (or none) otherwise — and returns the extended slice. It is
// Lookup for the one question the invocation path asks, "who serves this
// (service, partition)", answered from the content records in place: the
// nodes are those of Lookup(regexp.QuoteMeta(name), "<partition>" or "*"),
// in the same order, with no pattern compiled and nothing cloned.
func (d *Directory) Hosts(dst []NodeID, name string, partition int32) []NodeID {
	d.contents.Each(func(n NodeID, c *content) {
		for _, svc := range c.services {
			if svc.Name == name && (partition < 0 || slices.Contains(svc.Partitions, partition)) {
				dst = append(dst, n)
			}
		}
	})
	return dst
}
