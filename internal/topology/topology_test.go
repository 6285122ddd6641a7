package topology

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFlatLANDistances(t *testing.T) {
	top := FlatLAN(5)
	if top.NumHosts() != 5 {
		t.Fatalf("NumHosts = %d, want 5", top.NumHosts())
	}
	for a := HostID(0); a < 5; a++ {
		for b := HostID(0); b < 5; b++ {
			if got := top.MinTTL(a, b); got != 1 {
				t.Fatalf("MinTTL(%d,%d) = %d, want 1", a, b, got)
			}
		}
	}
}

func TestClusteredDistances(t *testing.T) {
	top := Clustered(3, 4) // 12 hosts; hosts 0-3 group0, 4-7 group1, 8-11 group2
	cases := []struct {
		a, b HostID
		want int
	}{
		{0, 1, 1},  // same switch
		{0, 3, 1},  // same switch
		{0, 4, 2},  // across the core router
		{4, 11, 2}, // across the core router
		{0, 0, 1},  // self by convention
	}
	for _, c := range cases {
		if got := top.MinTTL(c.a, c.b); got != c.want {
			t.Errorf("MinTTL(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFigure4NonTransitive(t *testing.T) {
	top := Figure4(2) // A-seg hosts 0,1; B-seg 2,3; C-seg 4,5
	a, bb, c := HostID(0), HostID(2), HostID(4)
	if got := top.MinTTL(bb, a); got != 3 {
		t.Errorf("MinTTL(B,A) = %d, want 3", got)
	}
	if got := top.MinTTL(bb, c); got != 3 {
		t.Errorf("MinTTL(B,C) = %d, want 3", got)
	}
	// Two routers on each arm: the paper only needs MinTTL(A,C) > 3.
	if got := top.MinTTL(a, c); got != 5 {
		t.Errorf("MinTTL(A,C) = %d, want 5 (non-transitive)", got)
	}
	if d := top.Diameter(); d != 5 {
		t.Errorf("Diameter = %d, want 5", d)
	}
	// Symmetry.
	if top.MinTTL(a, bb) != top.MinTTL(bb, a) {
		t.Error("MinTTL not symmetric")
	}
}

func TestMulticastScope(t *testing.T) {
	top := Clustered(2, 3) // hosts 0-2, 3-5
	s := top.MulticastScope(0, 1)
	if len(s.Hosts) != 2 {
		t.Fatalf("TTL1 scope of host 0 = %v, want 2 hosts", s.Hosts)
	}
	for _, h := range s.Hosts {
		if h != 1 && h != 2 {
			t.Fatalf("TTL1 scope contains foreign host %d", h)
		}
	}
	s2 := top.MulticastScope(0, 2)
	if len(s2.Hosts) != 5 {
		t.Fatalf("TTL2 scope = %v, want all 5 others", s2.Hosts)
	}
	// Scope excludes the sender.
	for _, h := range s2.Hosts {
		if h == 0 {
			t.Fatal("scope contains the sender")
		}
	}
}

func TestScopeLatencies(t *testing.T) {
	top := Clustered(2, 2)
	s := top.MulticastScope(0, 2)
	for i, h := range s.Hosts {
		want := top.MulticastLatency(0, h)
		if s.Latency[i] != want {
			t.Errorf("latency to %d = %v, want %v", h, s.Latency[i], want)
		}
		if s.Latency[i] <= 0 {
			t.Errorf("latency to %d not positive", h)
		}
	}
	// Same switch: 2 links. Cross: 4 links.
	if got := top.MulticastLatency(0, 1); got != 2*DefaultLANLatency {
		t.Errorf("same-switch latency = %v, want %v", got, 2*DefaultLANLatency)
	}
	if got := top.MulticastLatency(0, 2); got != 4*DefaultLANLatency {
		t.Errorf("cross-switch latency = %v, want %v", got, 4*DefaultLANLatency)
	}
}

func TestMultiDCWANIsolation(t *testing.T) {
	top := MultiDC(2, 2, 2) // 8 hosts, 0-3 in DC0, 4-7 in DC1
	if top.NumDataCenters() != 2 {
		t.Fatalf("NumDataCenters = %d, want 2", top.NumDataCenters())
	}
	// Multicast never crosses the WAN.
	if got := top.MinTTL(0, 4); got != -1 {
		t.Fatalf("MinTTL across DCs = %d, want -1", got)
	}
	// Unicast does.
	lat := top.UnicastLatency(0, 4)
	if lat < DefaultWANLatency {
		t.Fatalf("UnicastLatency across DCs = %v, want >= WAN latency", lat)
	}
	// DC membership.
	if got := top.HostsInDC(0); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("HostsInDC(0) = %v", got)
	}
	if top.HostDC(5) != 1 {
		t.Fatalf("HostDC(5) = %d, want 1", top.HostDC(5))
	}
}

func TestDeviceFailurePartitions(t *testing.T) {
	top := Clustered(2, 2)
	sw0, ok := top.FindDevice("sw0")
	if !ok {
		t.Fatal("sw0 not found")
	}
	before := top.MinTTL(0, 3)
	if before != 2 {
		t.Fatalf("pre-failure MinTTL(0,3) = %d, want 2", before)
	}
	epoch := top.Epoch()
	top.FailDevice(sw0.ID)
	if top.Epoch() == epoch {
		t.Fatal("epoch did not advance on failure")
	}
	if got := top.MinTTL(0, 3); got != -1 {
		t.Fatalf("post-failure MinTTL(0,3) = %d, want -1", got)
	}
	if got := top.MinTTL(0, 1); got != -1 {
		t.Fatalf("hosts behind failed switch should be cut off, got %d", got)
	}
	if got := top.MinTTL(2, 3); got != 1 {
		t.Fatalf("unaffected group broken: MinTTL(2,3) = %d", got)
	}
	top.RepairDevice(sw0.ID)
	if got := top.MinTTL(0, 3); got != 2 {
		t.Fatalf("post-repair MinTTL(0,3) = %d, want 2", got)
	}
	if top.failed[sw0.ID] {
		t.Fatal("sw0 still failed after repair")
	}
}

func TestLinkFailurePartitionsButKeepsGroup(t *testing.T) {
	top := Clustered(2, 2)
	sw0, _ := top.FindDevice("sw0")
	core, _ := top.FindDevice("core")
	top.FailLink(sw0.ID, core.ID)
	// Group 0 internally intact.
	if got := top.MinTTL(0, 1); got != 1 {
		t.Fatalf("intra-group MinTTL after uplink cut = %d, want 1", got)
	}
	// But cut off from group 1.
	if got := top.MinTTL(0, 2); got != -1 {
		t.Fatalf("cross-group MinTTL after uplink cut = %d, want -1", got)
	}
	if got := top.UnicastLatency(0, 3); got != -1 {
		t.Fatalf("unicast across cut uplink = %v, want -1", got)
	}
	top.RepairLink(sw0.ID, core.ID)
	if got := top.MinTTL(0, 2); got != 2 {
		t.Fatalf("post-repair MinTTL = %d, want 2", got)
	}
}

func TestUnicastLatencySymmetric(t *testing.T) {
	for _, top := range []*Topology{Figure4(2), MultiDC(2, 2, 2)} {
		n := HostID(top.NumHosts())
		for a := HostID(0); a < n; a++ {
			for b := HostID(0); b < n; b++ {
				ab, ba := top.UnicastLatency(a, b), top.UnicastLatency(b, a)
				if ab != ba {
					t.Fatalf("UnicastLatency(%d,%d)=%v != reverse %v", a, b, ab, ba)
				}
			}
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	h := b.Host("h", 0)
	b.Link(h, DeviceID(99), time.Millisecond)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for dangling link")
	}
	b2 := NewBuilder()
	h2 := b2.Host("h", 0)
	b2.Link(h2, h2, time.Millisecond)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for self link")
	}
	b3 := NewBuilder()
	x := b3.Host("x", 0)
	y := b3.Host("y", 0)
	b3.Link(x, y, -time.Second)
	if _, err := b3.Build(); err == nil {
		t.Fatal("want error for negative latency")
	}
}

func TestDiameterClustered(t *testing.T) {
	if d := Clustered(5, 20).Diameter(); d != 2 {
		t.Fatalf("Clustered diameter = %d, want 2", d)
	}
	if d := FlatLAN(10).Diameter(); d != 1 {
		t.Fatalf("FlatLAN diameter = %d, want 1", d)
	}
}

func TestHostNaming(t *testing.T) {
	top := Clustered(2, 2)
	d := top.HostDevice(0)
	if d.Kind != KindHost || d.Host != 0 {
		t.Fatalf("HostDevice(0) = %+v", d)
	}
	if d.Name == "" {
		t.Fatal("host has empty name")
	}
	if KindHost.String() != "host" || KindSwitch.String() != "switch" || KindRouter.String() != "router" {
		t.Fatal("Kind.String broken")
	}
	// MultiDC interleaves routers, switches and hosts: host IDs are still
	// dense and follow the order the hosts were added in.
	multi, next := MultiDC(3, 2, 3), HostID(0)
	for id := DeviceID(0); id < DeviceID(multi.NumDevices()); id++ {
		d := multi.devices[id]
		if d.Kind != KindHost {
			if d.Host != NoHost {
				t.Fatalf("%s %s has host ID %d", d.Kind, d.Name, d.Host)
			}
			continue
		}
		if d.Host != next || multi.HostDevice(next).ID != id {
			t.Fatalf("device %d (%s) has host ID %d, want %d", id, d.Name, d.Host, next)
		}
		next++
	}
	if int(next) != multi.NumHosts() || next != 18 {
		t.Fatalf("%d hosts numbered, NumHosts %d, want 18", next, multi.NumHosts())
	}
}

// Property: random topologies are connected, symmetric, and obey the
// triangle-ish bound MinTTL(a,c) <= MinTTL(a,b) + MinTTL(b,c) (router
// counts add along concatenated paths; +1 offsets cancel to within 1).
func TestPropertyRandomTopologies(t *testing.T) {
	f := func(seed int64, r, s, h uint8) bool {
		top := Random(seed, int(r%5)+1, int(s%6)+1, int(h%10)+2)
		n := top.NumHosts()
		for a := HostID(0); a < HostID(n); a++ {
			for b := HostID(0); b < HostID(n); b++ {
				d := top.MinTTL(a, b)
				if d < 1 {
					return false // must be connected
				}
				if top.MinTTL(b, a) != d {
					return false
				}
			}
		}
		// Triangle bound on router counts: routers(a,c) <= routers(a,b)+routers(b,c).
		for a := HostID(0); a < HostID(n); a++ {
			for b := HostID(0); b < HostID(n); b++ {
				for c := HostID(0); c < HostID(n); c++ {
					if top.MinTTL(a, c)-1 > (top.MinTTL(a, b)-1)+(top.MinTTL(b, c)-1) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hierarchical protocol converges on random topologies.
func TestPropertyRandomTopologyDeterministic(t *testing.T) {
	// Same seed gives the identical topology (structure and distances).
	a := Random(42, 3, 4, 8)
	b := Random(42, 3, 4, 8)
	if a.NumHosts() != b.NumHosts() || a.NumDevices() != b.NumDevices() {
		t.Fatal("Random not deterministic in size")
	}
	for x := HostID(0); x < HostID(a.NumHosts()); x++ {
		for y := HostID(0); y < HostID(a.NumHosts()); y++ {
			if a.MinTTL(x, y) != b.MinTTL(x, y) {
				t.Fatalf("Random distances differ at (%d,%d)", x, y)
			}
		}
	}
}

// Property: MinTTL is symmetric and satisfies "scope grows with TTL" on
// randomly sized clustered topologies.
func TestPropertyScopeMonotonic(t *testing.T) {
	f := func(g, p uint8) bool {
		groups := int(g%4) + 1
		per := int(p%4) + 1
		top := Clustered(groups, per)
		n := top.NumHosts()
		for a := HostID(0); a < HostID(n); a++ {
			prev := 0
			for ttl := 1; ttl <= 3; ttl++ {
				s := top.MulticastScope(a, ttl)
				if len(s.Hosts) < prev {
					return false
				}
				prev = len(s.Hosts)
			}
			for b := HostID(0); b < HostID(n); b++ {
				if top.MinTTL(a, b) != top.MinTTL(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosConcurrentEpochInvalidation hammers the TTL-reachability caches
// from reader goroutines while fault injection mutates the topology. Run
// under -race this pins the locking contract: every read either sees the
// pre-fault or post-fault world, never a torn row, and the epoch counter
// strictly covers every mutation.
func TestChaosConcurrentEpochInvalidation(t *testing.T) {
	top := Clustered(4, 6)
	sw1, _ := top.FindDevice("sw1")
	sw2, _ := top.FindDevice("sw2")
	core, _ := top.FindDevice("core")

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := HostID(r % top.NumHosts())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := top.Epoch()
				sc := top.MulticastScope(src, 1+i%3)
				for k, h := range sc.Hosts {
					if sc.Latency[k] < 0 {
						t.Errorf("scope for %d contains unreachable host %d", src, h)
						return
					}
				}
				dst := HostID((int(src) + 1 + i) % top.NumHosts())
				lat, _ := top.UnicastPath(src, dst)
				_ = lat
				if after := top.Epoch(); after < before {
					t.Errorf("epoch went backwards: %d -> %d", before, after)
					return
				}
			}
		}()
	}

	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			top.FailLink(sw1.ID, core.ID)
		case 1:
			top.RepairLink(sw1.ID, core.ID)
		case 2:
			top.FailDevice(sw2.ID)
		case 3:
			top.RepairDevice(sw2.ID)
		}
	}
	close(stop)
	wg.Wait()

	// All faults healed: the caches must have been invalidated back to the
	// full reachable world.
	if lat, _ := top.UnicastPath(0, HostID(top.NumHosts()-1)); lat < 0 {
		t.Fatal("post-repair unicast path missing; stale cache survived the epoch bumps")
	}
	if got := len(top.MulticastScope(0, top.Diameter()).Hosts); got != top.NumHosts()-1 {
		t.Fatalf("post-repair full-TTL scope has %d hosts, want %d", got, top.NumHosts()-1)
	}
}
