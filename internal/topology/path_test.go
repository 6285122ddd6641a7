package topology

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"
)

// oracleKey is search's order without the device tie-break: routers
// entered, then latency.
type oracleKey struct {
	routers int
	lat     time.Duration
}

func (a oracleKey) less(b oracleKey) bool {
	return a.routers < b.routers || (a.routers == b.routers && a.lat < b.lat)
}

// oracleRow is the brute-force reference for one source and mode: the best
// key of every device, how many best paths reach it (capped at 2), and the
// marked links on the path when there is exactly one.
type oracleRow struct {
	reached []bool
	key     []oracleKey
	paths   []int
	marks   []MarkSet
}

// oracle runs Bellman-Ford from src over the link list — every usable link
// relaxed in both directions until nothing improves — reading the failure
// set and link flags directly rather than through the search's link test.
// Path counts and marks then follow the tight links in key order; that
// needs positive latencies, which every graph here has.
func oracle(top *Topology, src HostID, multicast bool) oracleRow {
	n := top.NumDevices()
	r := oracleRow{reached: make([]bool, n), key: make([]oracleKey, n), paths: make([]int, n), marks: make([]MarkSet, n)}
	start := top.hosts[src]
	if top.failed[start] {
		return r
	}
	usable := func(l Link) bool { return !(multicast && l.WAN) && !top.failedLinks[mkLinkKey(l.A, l.B)] }
	step := func(u, v DeviceID, l Link) oracleKey {
		k := oracleKey{r.key[u].routers, r.key[u].lat + l.Latency}
		if multicast && top.devices[v].Kind == KindRouter {
			k.routers++
		}
		return k
	}
	r.reached[start], r.paths[start] = true, 1
	for changed := true; changed; {
		changed = false
		for _, l := range top.links {
			for _, uv := range [2][2]DeviceID{{l.A, l.B}, {l.B, l.A}} {
				u, v := uv[0], uv[1]
				if !usable(l) || !r.reached[u] || top.failed[v] {
					continue
				}
				if k := step(u, v, l); !r.reached[v] || k.less(r.key[v]) {
					r.reached[v], r.key[v], changed = true, k, true
				}
			}
		}
	}
	var order []DeviceID
	for d := range r.reached {
		if r.reached[d] && DeviceID(d) != start {
			order = append(order, DeviceID(d))
		}
	}
	sort.Slice(order, func(i, j int) bool { return r.key[order[i]].less(r.key[order[j]]) })
	for _, v := range order {
		for _, l := range top.links {
			u := l.A
			if u == v {
				u = l.B
			} else if l.B != v {
				continue
			}
			if usable(l) && r.reached[u] && step(u, v, l) == r.key[v] {
				r.paths[v] = min(r.paths[v]+r.paths[u], 2)
				r.marks[v] = r.marks[u].union(top.markBit(u, v))
			}
		}
	}
	return r
}

// checkPaths holds MinTTL, MulticastLatency, UnicastLatency and the marks
// of multicast scopes and unicast paths to the oracle for every host pair;
// marks are compared only where the best path is unique. It returns the
// first disagreement, or "".
func checkPaths(top *Topology) string {
	for a := HostID(0); a < HostID(top.NumHosts()); a++ {
		mc, uc := oracle(top, a, true), oracle(top, a, false)
		scope := top.MulticastScope(a, math.MaxInt16)
		inScope := map[HostID]MarkSet{}
		for i, h := range scope.Hosts {
			if scope.Marks != nil {
				inScope[h] = scope.Marks[i]
			}
		}
		for b := HostID(0); b < HostID(top.NumHosts()); b++ {
			dev := top.hosts[b]
			wantTTL, wantMC, wantUC := -1, time.Duration(-1), time.Duration(-1)
			if mc.reached[dev] {
				wantTTL, wantMC = mc.key[dev].routers+1, mc.key[dev].lat
			}
			if uc.reached[dev] {
				wantUC = uc.key[dev].lat
			}
			if got := top.MinTTL(a, b); got != wantTTL {
				return fmt.Sprintf("MinTTL(%d,%d) = %d, oracle %d", a, b, got, wantTTL)
			}
			if got := top.MulticastLatency(a, b); got != wantMC {
				return fmt.Sprintf("MulticastLatency(%d,%d) = %v, oracle %v", a, b, got, wantMC)
			}
			lat, marks := top.UnicastPath(a, b)
			if lat != wantUC {
				return fmt.Sprintf("UnicastLatency(%d,%d) = %v, oracle %v", a, b, lat, wantUC)
			}
			if uc.paths[dev] == 1 && fmt.Sprint(marks) != fmt.Sprint(uc.marks[dev]) {
				return fmt.Sprintf("unicast marks %d->%d = %v, oracle %v", a, b, marks, uc.marks[dev])
			}
			if got := inScope[b]; a != b && mc.paths[dev] == 1 && fmt.Sprint(got) != fmt.Sprint(mc.marks[dev]) {
				return fmt.Sprintf("multicast marks %d->%d = %v, oracle %v", a, b, got, mc.marks[dev])
			}
		}
	}
	return ""
}

// pathTopologies are graphs the constructors never build: cycles among
// switches and routers, equal-cost ties, WAN links between data centers,
// and paths with lower latency but more routers. Hosts stay single-homed
// so reachScript can re-home them.
func pathTopologies() map[string]func() *Topology {
	tops := map[string]func() *Topology{
		// sw0 reaches sw1 through one slow router or two fast ones:
		// multicast takes the first, unicast the second.
		"detour": func() *Topology {
			b := NewBuilder()
			sw0, sw1 := b.Switch("sw0", 0), b.Switch("sw1", 0)
			slow, f1, f2 := b.Router("slow", 0), b.Router("f1", 0), b.Router("f2", 0)
			b.Link(sw0, slow, time.Millisecond)
			b.Link(slow, sw1, time.Millisecond)
			b.Link(sw0, f1, 10*time.Microsecond)
			b.Link(f1, f2, 10*time.Microsecond)
			b.Link(f2, sw1, 10*time.Microsecond)
			for i, sw := range []DeviceID{sw0, sw1, sw0, sw1} {
				b.Link(b.Host(fmt.Sprintf("h%d", i), 0), sw, DefaultLANLatency)
			}
			return b.MustBuild()
		},
		// Two equal routes between two switches, and a WAN link to a
		// second data center.
		"diamond": func() *Topology {
			b := NewBuilder()
			sw0, sw1, sw2 := b.Switch("sw0", 0), b.Switch("sw1", 0), b.Switch("sw2", 1)
			ra, rb, rc := b.Router("ra", 0), b.Router("rb", 0), b.Router("rc", 1)
			for _, r := range []DeviceID{ra, rb} {
				b.Link(sw0, r, DefaultLANLatency)
				b.Link(r, sw1, DefaultLANLatency)
			}
			b.WANLink(ra, rc, DefaultWANLatency)
			b.Link(rc, sw2, DefaultLANLatency)
			for i, sw := range []DeviceID{sw0, sw1, sw2, sw0, sw1, sw2} {
				b.Link(b.Host(fmt.Sprintf("h%d", i), i%3/2), sw, DefaultLANLatency)
			}
			return b.MustBuild()
		},
	}
	for seed := int64(1); seed <= 4; seed++ {
		tops[fmt.Sprintf("cyclic-%d", seed)] = func() *Topology { return cyclic(seed) }
	}
	return tops
}

// cyclic is Random's shape over two data centers with extra links: a
// random tree of routers and switches per data center, then links between
// random non-host devices of one data center (cycles, with latencies from a
// two-value set so equal costs are common) and WAN links between them.
func cyclic(seed int64) *Topology {
	rng := newSplitMix(uint64(seed))
	b := NewBuilder()
	var infra [2][]DeviceID
	lat := func() time.Duration { return time.Duration(1+rng.intn(2)) * DefaultLANLatency }
	for dc := 0; dc < 2; dc++ {
		for i := 0; i < 6; i++ {
			var d DeviceID
			if rng.intn(2) == 0 {
				d = b.Router(fmt.Sprintf("dc%d-r%d", dc, i), dc)
			} else {
				d = b.Switch(fmt.Sprintf("dc%d-sw%d", dc, i), dc)
			}
			if i > 0 {
				b.Link(d, infra[dc][rng.intn(i)], lat())
			}
			infra[dc] = append(infra[dc], d)
		}
		for i := 0; i < 4; i++ {
			x, y := infra[dc][rng.intn(6)], infra[dc][rng.intn(6)]
			if x != y {
				b.Link(x, y, lat())
			}
		}
		for i := 0; i < 6; i++ {
			b.Link(b.Host(fmt.Sprintf("dc%d-h%d", dc, i), dc), infra[dc][rng.intn(6)], lat())
		}
	}
	for i := 0; i < 2; i++ {
		b.WANLink(infra[0][rng.intn(6)], infra[1][rng.intn(6)], DefaultWANLatency)
	}
	return b.MustBuild()
}

// TestPathRowsMatchOracle holds every path row to the brute-force
// reference, on the constructors' graphs and on cyclic ones, as built and
// after every step of the fail / repair / rehome / mark scripts.
//
// Mutant: pathItem.less compares latency before routers entered.
// Mutant: crosses drops its WAN test, so multicast scopes cross WAN links.
// Mutant: crosses ignores failed links for unicast.
func TestPathRowsMatchOracle(t *testing.T) {
	tops := pathTopologies()
	for name, build := range componentTopologies() {
		tops[name] = build
	}
	for name, build := range tops {
		top := build()
		top.MarkLink(top.links[0].A, top.links[0].B)
		top.MarkLinkDir(top.links[1].B, top.links[1].A)
		if bad := checkPaths(top); bad != "" {
			t.Errorf("%s as built: %s", name, bad)
		}
		for seed := int64(0); seed < 3; seed++ {
			if bad := reachScript(build(), seed, 30, checkPaths); bad != "" {
				t.Errorf("%s seed %d: %s", name, seed, bad)
			}
		}
	}
}

// TestDiameterFollowsEpoch: Diameter is cached per epoch, so a fault and
// its repair each change the answer.
func TestDiameterFollowsEpoch(t *testing.T) {
	top := Clustered(3, 4)
	core, _ := top.FindDevice("core")
	if d := top.Diameter(); d != 2 {
		t.Fatalf("Diameter = %d, want 2", d)
	}
	top.FailDevice(core.ID)
	if d := top.Diameter(); d != 1 {
		t.Fatalf("Diameter with the core router failed = %d, want 1", d)
	}
	top.RepairDevice(core.ID)
	if d := top.Diameter(); d != 2 {
		t.Fatalf("Diameter after repair = %d, want 2", d)
	}
}

// TestPathRowAllocs: a row allocates its struct and its per-host slices
// (latency, minTTL, marks) and nothing per device or per heap push, however
// large the topology.
func TestPathRowAllocs(t *testing.T) {
	const ceiling = 4
	top := Clustered(50, 20)
	last := top.links[len(top.links)-1]
	top.MarkLink(last.A, last.B)
	for _, multicast := range []bool{true, false} {
		allocs := testing.AllocsPerRun(10, func() {
			top.mu.Lock()
			top.search(0, multicast)
			top.mu.Unlock()
		})
		if allocs > ceiling {
			t.Errorf("one path row (multicast %v) at N=1000 allocates %.0f times, want at most %d", multicast, allocs, ceiling)
		}
	}
}

// BenchmarkPathRows times the two ways rows get built: every multicast
// row at once (Diameter at N=1000, as every daemon's MaxTTL needs), and a
// fault and its repair re-deriving a small cluster's scopes and unicast
// rows.
func BenchmarkPathRows(b *testing.B) {
	b.Run("clustered50x20-diameter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Clustered(50, 20).Diameter()
		}
	})
	b.Run("clustered3x8-fail-repair", func(b *testing.B) {
		top := Clustered(3, 8)
		sw, _ := top.FindDevice("sw1")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, fault := range []func(DeviceID){top.FailDevice, top.RepairDevice} {
				fault(sw.ID)
				for h := HostID(0); h < 24; h++ {
					top.MulticastScope(h, 2)
					top.UnicastLatency(h, 0)
				}
			}
		}
	})
}
