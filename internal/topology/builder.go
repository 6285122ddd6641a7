package topology

import (
	"fmt"
	"time"
)

// Builder assembles a Topology. Devices are added first, then links; Build
// validates the graph and returns the finished Topology.
type Builder struct {
	devices []Device
	links   []Link
	hosts   HostID // hosts added so far: the next host's ID
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// DefaultLANLatency is the link latency used by the convenience builders for
// intra-data-center links (one switch/router hop on a system-area network).
const DefaultLANLatency = 50 * time.Microsecond

// DefaultWANLatency is the one-way latency used for inter-data-center links,
// matching the paper's ~90 ms coast-to-coast round trip.
const DefaultWANLatency = 45 * time.Millisecond

func (b *Builder) add(kind Kind, name string, dc int) DeviceID {
	id := DeviceID(len(b.devices))
	host := NoHost
	if kind == KindHost {
		host = b.hosts
		b.hosts++
	}
	b.devices = append(b.devices, Device{ID: id, Kind: kind, Name: name, DC: dc, Host: host})
	return id
}

// Host adds a host in data center dc and returns its device ID.
func (b *Builder) Host(name string, dc int) DeviceID { return b.add(KindHost, name, dc) }

// Switch adds a layer-2 switch.
func (b *Builder) Switch(name string, dc int) DeviceID { return b.add(KindSwitch, name, dc) }

// Router adds a layer-3 router.
func (b *Builder) Router(name string, dc int) DeviceID { return b.add(KindRouter, name, dc) }

// Link connects two devices with the given latency.
func (b *Builder) Link(a, d DeviceID, latency time.Duration) {
	b.link(a, d, latency, false)
}

// WANLink connects two devices across data centers; multicast will not
// traverse it.
func (b *Builder) WANLink(a, d DeviceID, latency time.Duration) {
	b.link(a, d, latency, true)
}

func (b *Builder) link(a, d DeviceID, latency time.Duration, wan bool) {
	if b.err != nil {
		return
	}
	if int(a) >= len(b.devices) || int(d) >= len(b.devices) || a < 0 || d < 0 {
		b.err = fmt.Errorf("topology: link references unknown device (%d, %d)", a, d)
		return
	}
	if a == d {
		b.err = fmt.Errorf("topology: self-link on device %d", a)
		return
	}
	if latency < 0 {
		b.err = fmt.Errorf("topology: negative latency on link (%d, %d)", a, d)
		return
	}
	b.links = append(b.links, Link{A: a, B: d, Latency: latency, WAN: wan})
}

// Build validates and returns the Topology.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Topology{
		devices: b.devices,
		links:   b.links,
		adj:     make([][]halfEdge, len(b.devices)),
	}
	maxDC := 0
	for _, d := range b.devices {
		if d.Kind == KindHost {
			t.hosts = append(t.hosts, d.ID)
		}
		if d.DC > maxDC {
			maxDC = d.DC
		}
		if d.DC < 0 {
			return nil, fmt.Errorf("topology: device %q has negative data center", d.Name)
		}
	}
	if len(t.devices) > 0 {
		t.numDC = maxDC + 1
	}
	for _, l := range b.links {
		t.adj[l.A] = append(t.adj[l.A], halfEdge{from: l.A, to: l.B, latency: l.Latency, wan: l.WAN})
		t.adj[l.B] = append(t.adj[l.B], halfEdge{from: l.B, to: l.A, latency: l.Latency, wan: l.WAN})
	}
	t.uniRows = make([]*pathRow, len(t.hosts))
	t.mcastRows = make([]*pathRow, len(t.hosts))
	t.best = make([]pathItem, len(t.devices))
	t.mask = make([]MarkSet, len(t.devices))
	return t, nil
}

// MustBuild is Build that panics on error; intended for tests and for the
// canned constructors below, whose inputs are validated up front.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// FlatLAN builds n hosts on a single layer-2 switch: every pair is at
// TTL distance 1, so the hierarchical protocol degenerates to all-to-all
// (as the paper notes for a single network).
func FlatLAN(n int) *Topology {
	b := NewBuilder()
	sw := b.Switch("sw0", 0)
	for i := 0; i < n; i++ {
		h := b.Host(fmt.Sprintf("node%03d", i), 0)
		b.Link(h, sw, DefaultLANLatency)
	}
	return b.MustBuild()
}

// Clustered builds the paper's evaluation layout: groups of perGroup hosts,
// each group on its own layer-2 switch, all switches attached to one core
// router. Hosts within a group are at TTL 1 of each other; across groups the
// distance is 2, so level-0 groups map to switches and the level-1 group
// spans the group leaders. This mirrors "two Layer-3 switches ... five
// networks for 100 nodes" from §6.2 with one network per multicast channel.
func Clustered(groups, perGroup int) *Topology {
	b := NewBuilder()
	core := b.Router("core", 0)
	for g := 0; g < groups; g++ {
		sw := b.Switch(fmt.Sprintf("sw%d", g), 0)
		b.Link(sw, core, DefaultLANLatency)
		for i := 0; i < perGroup; i++ {
			h := b.Host(fmt.Sprintf("g%02dn%03d", g, i), 0)
			b.Link(h, sw, DefaultLANLatency)
		}
	}
	return b.MustBuild()
}

// Figure4 builds the paper's Figure 4 example, a general topology where TTL
// distance is not transitive: hosts A, B, C (each with extraPerSeg-1 local
// companions) sit behind their own switches, arranged so that
// MinTTL(B,A)=3, MinTTL(B,C)=3 but MinTTL(A,C)=4. Host IDs: segment A hosts
// come first, then B, then C, so within-segment leaders are the lowest IDs
// A=0, B=extraPerSeg, C=2*extraPerSeg.
//
// Layout: swA - r1 - swB(center) ... swB - r2 - swC, with B's segment in the
// middle: A--swA--r1--swB--B, C--swC--r2--swB. Then A<->B crosses r1 (TTL 2)?
// To match the paper's distances (3,3,4) we chain two routers on each arm:
// swA--r1--r2--swB and swB--r3--r4--swC giving d(A,B)=3, d(B,C)=3, d(A,C)=5.
// The paper only requires d(A,C) > 3 while the pairs through B are <= 3,
// which this provides (levels 1 and 2 behave exactly as in the figure).
func Figure4(extraPerSeg int) *Topology {
	if extraPerSeg < 1 {
		extraPerSeg = 1
	}
	b := NewBuilder()
	swA := b.Switch("swA", 0)
	swB := b.Switch("swB", 0)
	swC := b.Switch("swC", 0)
	r1 := b.Router("r1", 0)
	r2 := b.Router("r2", 0)
	r3 := b.Router("r3", 0)
	r4 := b.Router("r4", 0)
	b.Link(swA, r1, DefaultLANLatency)
	b.Link(r1, r2, DefaultLANLatency)
	b.Link(r2, swB, DefaultLANLatency)
	b.Link(swB, r3, DefaultLANLatency)
	b.Link(r3, r4, DefaultLANLatency)
	b.Link(r4, swC, DefaultLANLatency)
	for seg, sw := range []DeviceID{swA, swB, swC} {
		for i := 0; i < extraPerSeg; i++ {
			h := b.Host(fmt.Sprintf("seg%c-n%02d", 'A'+seg, i), 0)
			b.Link(h, sw, DefaultLANLatency)
		}
	}
	return b.MustBuild()
}

// Random builds a connected random topology: a random tree of routers and
// switches with hosts hanging off the switches. Useful for property tests:
// TTL distances are irregular and generally non-transitive, like the
// paper's "other topologies". Deterministic for a given seed.
func Random(seed int64, routers, switches, hosts int) *Topology {
	if routers < 1 {
		routers = 1
	}
	if switches < 1 {
		switches = 1
	}
	if hosts < 1 {
		hosts = 1
	}
	rng := newSplitMix(uint64(seed))
	b := NewBuilder()
	// Random router tree.
	rs := make([]DeviceID, routers)
	for i := range rs {
		rs[i] = b.Router(fmt.Sprintf("r%d", i), 0)
		if i > 0 {
			b.Link(rs[i], rs[rng.intn(i)], DefaultLANLatency)
		}
	}
	// Switches attach to random routers (or to another switch sometimes,
	// making pure layer-2 chains).
	sws := make([]DeviceID, switches)
	for i := range sws {
		sws[i] = b.Switch(fmt.Sprintf("sw%d", i), 0)
		if i > 0 && rng.intn(4) == 0 {
			b.Link(sws[i], sws[rng.intn(i)], DefaultLANLatency)
		} else {
			b.Link(sws[i], rs[rng.intn(routers)], DefaultLANLatency)
		}
	}
	for i := 0; i < hosts; i++ {
		h := b.Host(fmt.Sprintf("h%03d", i), 0)
		b.Link(h, sws[rng.intn(switches)], DefaultLANLatency)
	}
	return b.MustBuild()
}

// splitMix is a tiny deterministic RNG so Random does not depend on
// math/rand's global state or version-specific stream.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed + 0x9E3779B97F4A7C15} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }

// MultiDC builds dcs data centers, each a Clustered(groups, perGroup)
// layout, with every pair of data-center core routers joined by a WAN link.
// Host IDs are contiguous per data center.
func MultiDC(dcs, groups, perGroup int) *Topology {
	b := NewBuilder()
	cores := make([]DeviceID, dcs)
	for dc := 0; dc < dcs; dc++ {
		cores[dc] = b.Router(fmt.Sprintf("dc%d-core", dc), dc)
		for g := 0; g < groups; g++ {
			sw := b.Switch(fmt.Sprintf("dc%d-sw%d", dc, g), dc)
			b.Link(sw, cores[dc], DefaultLANLatency)
			for i := 0; i < perGroup; i++ {
				h := b.Host(fmt.Sprintf("dc%d-g%02dn%03d", dc, g, i), dc)
				b.Link(h, sw, DefaultLANLatency)
			}
		}
	}
	for i := 0; i < dcs; i++ {
		for j := i + 1; j < dcs; j++ {
			b.WANLink(cores[i], cores[j], DefaultWANLatency)
		}
	}
	return b.MustBuild()
}
