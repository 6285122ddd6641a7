package topology

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a network device.
type Kind uint8

const (
	// KindHost is an end host running a membership daemon.
	KindHost Kind = iota
	// KindSwitch is a layer-2 device: forwards multicast without
	// decrementing TTL.
	KindSwitch
	// KindRouter is a layer-3 device: decrements TTL and drops packets
	// whose TTL reaches zero.
	KindRouter
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	case KindRouter:
		return "router"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DeviceID identifies any device in a Topology.
type DeviceID int32

// HostID identifies a host. Host IDs are dense (0..NumHosts-1) and double as
// the protocol-level node identity: the paper elects the member with the
// lowest ID (e.g. IP address) as group leader, and we use HostID order the
// same way.
type HostID int32

// NoHost is returned by lookups that find no host.
const NoHost HostID = -1

// Device is one node of the physical network graph.
type Device struct {
	ID   DeviceID
	Kind Kind
	Name string
	// DC is the data-center index the device belongs to.
	DC int
	// Host is the dense host index if Kind == KindHost, else -1.
	Host HostID
}

// Link is an undirected edge between two devices.
type Link struct {
	A, B    DeviceID
	Latency time.Duration
	// WAN marks an inter-data-center link; multicast will not traverse it.
	WAN bool
}

// Topology is an immutable-after-build network graph plus cached host
// path rows. Build one with a Builder; the zero value is empty.
//
// The graph itself never changes after Build, but the failure set
// (FailDevice/FailLink), link marks (MarkLink), and the derived caches do.
// All of those are guarded by an internal mutex, so reachability queries
// may be issued concurrently with failure injection — the chaos engine
// mutates the failure set on the simulation goroutine while tests and
// auditors read scopes from others.
type Topology struct {
	devices []Device
	links   []Link
	adj     [][]halfEdge // adjacency by device
	hosts   []DeviceID   // host index -> device id
	numDC   int

	// mu guards everything below: the failure set, the mark table, the
	// epoch, and the caches keyed on it. Rows and scopes are immutable
	// once stored, so they may be returned to callers without the lock.
	mu sync.Mutex

	// failed devices (switch/router outages) and failed links invalidate
	// cached scopes.
	failed      map[DeviceID]bool
	failedLinks map[linkKey]bool
	epoch       uint64

	// marked links get a bit index in the path mark sets reported by scopes
	// and unicast rows (per-link loss/jitter overrides in netsim). The
	// undirected table (MarkLink) and the directed table (MarkLinkDir)
	// share one growable bit namespace, tracked by nextMarkBit.
	marked      map[linkKey]int
	markedDir   map[dirLinkKey]int
	nextMarkBit int

	scopeCache map[scopeKey]*Scope
	scopeEpoch uint64 // epoch scopeCache entries belong to; older ones are dropped

	// Per-host path rows, each valid for the epoch it carries; Build sizes
	// both. diameterAt is epoch+1 when diameter is current, 0 before the
	// first Diameter.
	uniRows, mcastRows []*pathRow
	diameter           int
	diameterAt         uint64

	// search's per-device scratch, reused across calls.
	best []pathItem
	mask []MarkSet
	heap pathHeap
}

// pathRow is one source's view of every host along its chosen paths.
type pathRow struct {
	epoch   uint64
	minTTL  []int16         // multicast rows only: routers entered + 1; -1 unreachable
	latency []time.Duration // per host; -1 unreachable
	marks   []MarkSet       // per host: marked links on the chosen path (nil when none marked)
}

type halfEdge struct {
	from    DeviceID
	to      DeviceID
	latency time.Duration
	wan     bool
}

// linkKey normalizes an undirected device pair.
type linkKey struct{ lo, hi DeviceID }

// dirLinkKey is a directed device pair: faults registered under it apply
// only to traversals from `from` to `to`.
type dirLinkKey struct{ from, to DeviceID }

func mkLinkKey(a, b DeviceID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

type scopeKey struct {
	src HostID
	ttl int
}

// Scope is the receiver set of a (source, TTL) multicast, excluding the
// source itself.
type Scope struct {
	Hosts   []HostID
	Latency []time.Duration // parallel to Hosts: source->host delivery latency
	// Marks is parallel to Hosts: the set of marked links (MarkLink) the
	// delivery path crosses. Nil when no links are marked.
	Marks []MarkSet
}

// MarkSet is the set of marked-link bits a path crosses. The first 64 bits
// live inline, so topologies with up to 64 marked links — every current
// scenario — pay no allocation; further bits spill into an immutable
// overflow slice that unions share copy-on-write. The zero MarkSet is empty.
type MarkSet struct {
	lo uint64
	hi []uint64 // bit 64+i*64+j is hi[i] bit j; no trailing zero words
}

// Empty reports whether no links are marked on the path.
func (m MarkSet) Empty() bool { return m.lo == 0 && len(m.hi) == 0 }

// Words exposes the raw bitmap — the inline low word plus the overflow
// words, where overflow word i carries bits 64+i*64 .. 127+i*64. Callers
// must not mutate the overflow slice. This is the allocation-free iteration
// surface netsim's per-delivery fault composition uses.
func (m MarkSet) Words() (lo uint64, hi []uint64) { return m.lo, m.hi }

// with returns m plus one bit, sharing or copying the overflow as needed.
func (m MarkSet) with(bit int) MarkSet {
	if bit < 64 {
		m.lo |= 1 << uint(bit)
		return m
	}
	w := bit/64 - 1
	hi := make([]uint64, max(w+1, len(m.hi)))
	copy(hi, m.hi)
	hi[w] |= 1 << uint(bit%64)
	m.hi = hi
	return m
}

// union returns the bitwise union of two sets without mutating either.
func (m MarkSet) union(o MarkSet) MarkSet {
	if o.Empty() {
		return m
	}
	if m.Empty() {
		return o
	}
	out := MarkSet{lo: m.lo | o.lo}
	if len(m.hi) == 0 {
		out.hi = o.hi
		return out
	}
	if len(o.hi) == 0 {
		out.hi = m.hi
		return out
	}
	out.hi = make([]uint64, max(len(m.hi), len(o.hi)))
	copy(out.hi, m.hi)
	for i, w := range o.hi {
		out.hi[i] |= w
	}
	return out
}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.hosts) }

// NumDevices returns the number of devices of all kinds.
func (t *Topology) NumDevices() int { return len(t.devices) }

// NumDataCenters returns the number of data centers (at least 1 for a
// non-empty topology).
func (t *Topology) NumDataCenters() int { return t.numDC }

// HostDevice returns the device record backing host h.
func (t *Topology) HostDevice(h HostID) Device { return t.devices[t.hosts[h]] }

// HostDC returns the data center of host h.
func (t *Topology) HostDC(h HostID) int { return t.devices[t.hosts[h]].DC }

// HostsInDC returns the hosts located in data center dc, in ID order.
func (t *Topology) HostsInDC(dc int) []HostID {
	var out []HostID
	for h, dev := range t.hosts {
		if t.devices[dev].DC == dc {
			out = append(out, HostID(h))
		}
	}
	return out
}

// Links returns a copy of the link list.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// FindDevice returns the first device with the given name, or false.
func (t *Topology) FindDevice(name string) (Device, bool) {
	for _, d := range t.devices {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// FailDevice marks a non-host device as failed: packets no longer traverse
// it. Failing a host device is allowed but normally host failures are
// modelled at the protocol layer (the daemon stops), not here.
func (t *Topology) FailDevice(id DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed == nil {
		t.failed = make(map[DeviceID]bool)
	}
	if !t.failed[id] {
		t.failed[id] = true
		t.epoch++
	}
}

// RepairDevice clears a failure set by FailDevice.
func (t *Topology) RepairDevice(id DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed[id] {
		delete(t.failed, id)
		t.epoch++
	}
}

// FailLink cuts the link between two devices (e.g. a group switch's uplink,
// partitioning the group from the rest of the cluster while leaving the
// group internally connected).
func (t *Topology) FailLink(a, b DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failedLinks == nil {
		t.failedLinks = make(map[linkKey]bool)
	}
	k := mkLinkKey(a, b)
	if !t.failedLinks[k] {
		t.failedLinks[k] = true
		t.epoch++
	}
}

// RepairLink restores a link cut by FailLink.
func (t *Topology) RepairLink(a, b DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := mkLinkKey(a, b)
	if t.failedLinks[k] {
		delete(t.failedLinks, k)
		t.epoch++
	}
}

// RehomeHost rewires host h's single access link onto device `to`
// (typically another group's switch) — a re-cabling or port-VLAN move that
// skews the TTL-scoped group partition without failing anything. The
// access link keeps its latency and WAN flag. This is the one permitted
// post-Build graph mutation; the epoch bump invalidates every cached
// scope, distance, and delivery fan-out exactly like a failure does.
func (t *Topology) RehomeHost(h HostID, to DeviceID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hd := t.hosts[h]
	if t.devices[to].Kind == KindHost {
		panic("topology: RehomeHost target must be a switch or router")
	}
	idx := -1
	for i, l := range t.links {
		if l.A == hd || l.B == hd {
			if idx >= 0 {
				panic("topology: RehomeHost requires a single-homed host")
			}
			idx = i
		}
	}
	if idx < 0 {
		panic("topology: host has no access link")
	}
	old := t.links[idx]
	prev := old.A
	if prev == hd {
		prev = old.B
	}
	if prev == to {
		return
	}
	t.links[idx] = Link{A: hd, B: to, Latency: old.Latency, WAN: old.WAN}
	for i := range t.adj[hd] {
		if t.adj[hd][i].to == prev {
			t.adj[hd][i].to = to
		}
	}
	edges := t.adj[prev][:0]
	for _, e := range t.adj[prev] {
		if e.to != hd {
			edges = append(edges, e)
		}
	}
	t.adj[prev] = edges
	t.adj[to] = append(t.adj[to], halfEdge{from: to, to: hd, latency: old.Latency, wan: old.WAN})
	t.epoch++
}

// crosses reports whether a packet may traverse e under the current
// failure set; a multicast one also stops at WAN links. Must be called
// with t.mu held.
func (t *Topology) crosses(e halfEdge, multicast bool) bool {
	return !(multicast && e.wan) && !t.failed[e.to] && !t.failedLinks[mkLinkKey(e.from, e.to)]
}

// MarkLink registers the link between a and b for path tracking and returns
// its bit index: subsequent scope and unicast computations report, per
// destination, the set of marked links the chosen path crosses
// (Scope.Marks, UnicastPath). This is how netsim applies per-link loss and
// jitter overrides. Marking the same link again returns the existing bit.
// The bit applies to traversals in both directions; MarkLinkDir marks one
// direction only. The bit namespace grows without bound (the first 64 bits
// are free of allocation, later ones spill into MarkSet overflow words);
// marking a link that does not exist in the topology panics, naming it.
func (t *Topology) MarkLink(a, b DeviceID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := mkLinkKey(a, b)
	if bit, ok := t.marked[k]; ok {
		return bit
	}
	bit := t.allocMarkBitLocked(a, b)
	if t.marked == nil {
		t.marked = make(map[linkKey]int)
	}
	t.marked[k] = bit
	t.epoch++ // cached rows lack mark data; recompute
	return bit
}

// MarkLinkDir registers the a→b direction of a link for path tracking and
// returns its bit index: the bit appears in path masks only when the chosen
// path traverses the link from a towards b, so netsim can degrade one
// direction while the reverse stays clean. Marking the same direction again
// returns the existing bit; the reverse direction and any undirected
// MarkLink bit for the same link are independent.
func (t *Topology) MarkLinkDir(a, b DeviceID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := dirLinkKey{from: a, to: b}
	if bit, ok := t.markedDir[k]; ok {
		return bit
	}
	bit := t.allocMarkBitLocked(a, b)
	if t.markedDir == nil {
		t.markedDir = make(map[dirLinkKey]int)
	}
	t.markedDir[k] = bit
	t.epoch++ // cached rows lack mark data; recompute
	return bit
}

// allocMarkBitLocked hands out the next free mark bit. Bits are unbounded —
// MarkSet grows past 64 marks — so the only loud failure left is marking a
// link the topology does not contain, which would otherwise register a bit
// no path can ever cross and silently disable the caller's fault profile.
func (t *Topology) allocMarkBitLocked(a, b DeviceID) int {
	if !t.linkExistsLocked(a, b) {
		panic(fmt.Sprintf("topology: marking nonexistent link %s<->%s",
			t.deviceName(a), t.deviceName(b)))
	}
	bit := t.nextMarkBit
	t.nextMarkBit++
	return bit
}

// linkExistsLocked reports whether an edge joins a and b in the graph
// (failure state is irrelevant: marking a currently-failed link is legal).
func (t *Topology) linkExistsLocked(a, b DeviceID) bool {
	if int(a) < 0 || int(a) >= len(t.adj) {
		return false
	}
	for _, e := range t.adj[a] {
		if e.to == b {
			return true
		}
	}
	return false
}

// deviceName is a best-effort name for diagnostics; it tolerates bogus IDs
// because it is called from panic paths.
func (t *Topology) deviceName(id DeviceID) string {
	if int(id) >= 0 && int(id) < len(t.devices) {
		return t.devices[id].Name
	}
	return fmt.Sprintf("device(%d)", id)
}

// markBit must be called with t.mu held; returns the mark-set contribution
// of traversing the link from a to b (undirected marks plus the a→b
// direction).
func (t *Topology) markBit(a, b DeviceID) MarkSet {
	var m MarkSet
	if len(t.marked) > 0 {
		if bit, ok := t.marked[mkLinkKey(a, b)]; ok {
			m = m.with(bit)
		}
	}
	if len(t.markedDir) > 0 {
		if bit, ok := t.markedDir[dirLinkKey{from: a, to: b}]; ok {
			m = m.with(bit)
		}
	}
	return m
}

// Epoch increases whenever the failure set or mark table changes; cached
// rows and scopes are keyed on it.
func (t *Topology) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// row returns src's unicast or multicast path row for the current epoch.
func (t *Topology) row(src HostID, multicast bool) *pathRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowLocked(src, multicast)
}

// rowLocked must be called with t.mu held; the returned row is immutable
// and may be read without the lock.
func (t *Topology) rowLocked(src HostID, multicast bool) *pathRow {
	rows := t.uniRows
	if multicast {
		rows = t.mcastRows
	}
	if r := rows[src]; r != nil && r.epoch == t.epoch {
		return r
	}
	rows[src] = t.search(src, multicast)
	return rows[src]
}

// search computes src's path row with one Dijkstra from src's device over
// the links a packet may cross, settling devices in (routers entered,
// latency, device ID) order. A multicast search counts the routers a path
// enters, each of which spends a unit of TTL, and so picks the fewest
// routers first and the lowest latency among those; a unicast search
// counts none and picks the lowest latency. Of two best paths, a device
// keeps the one through the neighbour settled first. Must be called with
// t.mu held.
func (t *Topology) search(src HostID, multicast bool) *pathRow {
	best, mask := t.best, t.mask
	for i := range best {
		best[i] = pathItem{lat: 1<<62 - 1, routers: unreached, dev: DeviceID(i)}
	}
	marking := len(t.marked) > 0 || len(t.markedDir) > 0
	if marking {
		clear(mask)
	}
	if start := t.hosts[src]; !t.failed[start] {
		best[start] = pathItem{dev: start}
		h := append(t.heap[:0], best[start])
		for len(h) > 0 {
			it := h.pop()
			if it != best[it.dev] {
				continue // superseded by a better key pushed later
			}
			for _, e := range t.adj[it.dev] {
				if !t.crosses(e, multicast) {
					continue
				}
				next := pathItem{lat: it.lat + e.latency, routers: it.routers, dev: e.to}
				if multicast && t.devices[e.to].Kind == KindRouter {
					next.routers++
				}
				if next.less(best[e.to]) {
					best[e.to] = next
					if marking {
						mask[e.to] = mask[it.dev].union(t.markBit(e.from, e.to))
					}
					h.push(next)
				}
			}
		}
		t.heap = h
	}
	n := len(t.hosts)
	row := &pathRow{epoch: t.epoch, latency: make([]time.Duration, n)}
	if multicast {
		row.minTTL = make([]int16, n)
	}
	if marking {
		row.marks = make([]MarkSet, n)
	}
	for h, dev := range t.hosts {
		lat, ttl := best[dev].lat, int16(best[dev].routers)+1
		if best[dev].routers == unreached {
			lat, ttl = -1, -1
		} else if marking {
			row.marks[h] = mask[dev]
		}
		row.latency[h] = lat
		if multicast {
			row.minTTL[h] = ttl
		}
	}
	return row
}

// unreached is the router count of a device search has not reached.
const unreached = 1 << 30

// MinTTL returns the smallest TTL with which a multicast from a reaches b,
// or -1 if unreachable without crossing a WAN link. MinTTL(a, a) is 1 by
// convention (a node always receives on its own segment).
func (t *Topology) MinTTL(a, b HostID) int {
	return int(t.row(a, true).minTTL[b])
}

// MulticastLatency returns the delivery latency from a to b along the path
// used for multicast distance, or -1 if unreachable.
func (t *Topology) MulticastLatency(a, b HostID) time.Duration {
	return t.row(a, true).latency[b]
}

// MulticastScope returns the hosts (other than src) that receive a multicast
// sent by src with the given TTL, with per-receiver latencies. The result is
// cached until the failure epoch changes; callers must not mutate it.
func (t *Topology) MulticastScope(src HostID, ttl int) *Scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.scopeEpoch != t.epoch {
		// Fault injection bumps the epoch; entries keyed on older epochs can
		// never be hit again, so drop them rather than let a long chaos run
		// accumulate one dead scope per (source, TTL) per fault event.
		clear(t.scopeCache)
		t.scopeEpoch = t.epoch
	}
	key := scopeKey{src, ttl}
	if s, ok := t.scopeCache[key]; ok {
		return s
	}
	row := t.rowLocked(src, true)
	s := &Scope{}
	for h, d := range row.minTTL {
		if HostID(h) != src && d > 0 && int(d) <= ttl {
			s.Hosts = append(s.Hosts, HostID(h))
			s.Latency = append(s.Latency, row.latency[h])
			if row.marks != nil {
				s.Marks = append(s.Marks, row.marks[h])
			}
		}
	}
	if t.scopeCache == nil {
		t.scopeCache = make(map[scopeKey]*Scope)
	}
	t.scopeCache[key] = s
	return s
}

// UnicastLatency returns the latency of a unicast datagram from a to b,
// allowed to cross WAN links, or -1 if disconnected. The per-source row is
// cached until the failure epoch changes, since unicast sends are on the
// protocols' hot path.
func (t *Topology) UnicastLatency(a, b HostID) time.Duration {
	return t.row(a, false).latency[b]
}

// UnicastPath returns the unicast latency from a to b (or -1 if
// disconnected) together with the set of marked links (MarkLink) the chosen
// path crosses.
func (t *Topology) UnicastPath(a, b HostID) (time.Duration, MarkSet) {
	row := t.row(a, false)
	if row.marks == nil {
		return row.latency[b], MarkSet{}
	}
	return row.latency[b], row.marks[b]
}

// pathItem is a device's key in search's order: routers entered, then
// latency, then device ID. Latency leads the layout so an item packs into
// 16 bytes.
type pathItem struct {
	lat     time.Duration
	routers int32
	dev     DeviceID
}

func (a pathItem) less(b pathItem) bool {
	if a.routers != b.routers {
		return a.routers < b.routers
	}
	return a.lat < b.lat || (a.lat == b.lat && a.dev < b.dev)
}

// pathHeap is a binary min-heap of pending visits, lazily deduplicated:
// superseded items are skipped on pop.
type pathHeap []pathItem

func (h *pathHeap) push(it pathItem) {
	*h = append(*h, it)
	h.up(len(*h)-1, it)
}

// up moves it from slot i towards the root until its parent is smaller.
func (h pathHeap) up(i int, it pathItem) {
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// pop removes the smallest item. It walks the root's hole down along the
// smaller children to a leaf and lets the last item rise from there, which
// takes about half the comparisons of sifting the last item down.
func (h *pathHeap) pop() pathItem {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	i := 0
	for c := 1; c < len(s); c = 2*i + 1 {
		if c+1 < len(s) && s[c+1].less(s[c]) {
			c++
		}
		s[i] = s[c]
		i = c
	}
	s.up(i, last)
	return top
}

// Diameter returns the maximum finite MinTTL over all host pairs: the
// smallest MaxTTL that lets the membership tree cover the whole cluster.
// It is computed once per epoch.
func (t *Topology) Diameter() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.diameterAt != t.epoch+1 {
		t.diameter = 0
		for a := range t.hosts {
			for b, d := range t.rowLocked(HostID(a), true).minTTL {
				if b != a && int(d) > t.diameter {
					t.diameter = int(d)
				}
			}
		}
		t.diameterAt = t.epoch + 1
	}
	return t.diameter
}
