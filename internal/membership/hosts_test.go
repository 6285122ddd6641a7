package membership

import (
	"fmt"
	"math/rand"
	"regexp"
	"testing"
)

// TestHostsEqualsLookup holds the exact-name scan to the regex API it stands
// in for on the invocation path: on randomised directories — services with
// regex metacharacters in their names, nodes declaring a name twice, nodes
// with no partitions, IDs outside the dense window — Hosts(name, p) must be
// the nodes of Lookup(quote(name), spec), in order, for a wanted partition
// and for "any".
func TestHostsEqualsLookup(t *testing.T) {
	names := []string{"app", "app2", "a.p", "a+p", "Index", "Doc[0]", "x|y", `back\slash`, ""}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory(0)
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			id := NodeID(rng.Intn(64))
			if rng.Intn(10) == 0 {
				id += maxDense // the map-backed fallback
			}
			info := MemberInfo{Node: id, Incarnation: 1}
			for s, ns := 0, rng.Intn(4); s < ns; s++ {
				decl := ServiceDecl{Name: names[rng.Intn(len(names))]}
				for p, np := 0, rng.Intn(4); p < np; p++ {
					decl.Partitions = append(decl.Partitions, int32(rng.Intn(6)))
				}
				info.Services = append(info.Services, decl)
			}
			d.Upsert(info, OriginDirect, 0, NoNode, 0)
		}
		for _, name := range names {
			for part := int32(-2); part < 7; part++ {
				spec := "*"
				if part >= 0 {
					spec = fmt.Sprint(part)
				}
				matches, err := d.Lookup(regexp.QuoteMeta(name), spec)
				if err != nil {
					t.Fatal(err)
				}
				var want []NodeID
				for _, m := range matches {
					want = append(want, m.Node)
				}
				// A warm destination must be appended to, not overwritten.
				got := d.Hosts([]NodeID{-7}, name, part)
				if got[0] != -7 || !ViewEqual(got[1:], want) {
					t.Fatalf("seed %d, %q partition %d: Hosts %v, Lookup %v", seed, name, part, got[1:], want)
				}
			}
		}
	}
}

// BenchmarkDirectoryHosts measures the candidate scan of one invocation on a
// directory the size of the traffic matrices' clusters; into a warm slice it
// must not allocate.
func BenchmarkDirectoryHosts(b *testing.B) {
	d := NewDirectory(0)
	for i := 0; i < 24; i++ {
		info := MemberInfo{Node: NodeID(i), Incarnation: 1,
			Services: []ServiceDecl{{Name: "app", Partitions: []int32{int32(i % 8)}}}}
		d.Upsert(info, OriginRelayed, 1, 1, 0)
	}
	dst := make([]NodeID, 0, 8)
	scan := func() {
		if dst = d.Hosts(dst[:0], "app", 3); len(dst) != 3 {
			b.Fatalf("hosts of partition 3: %v", dst)
		}
	}
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		b.Fatalf("Hosts into a warm slice allocates %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
