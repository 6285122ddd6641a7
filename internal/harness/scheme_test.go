package harness

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// TestSchemeTable walks every row of the scheme table. The names and the
// n=24 bounds are pinned: run keys, seeds, BENCH files and every audited
// deadline derive from them, so a drift here silently moves every matrix.
func TestSchemeTable(t *testing.T) {
	rows := []struct {
		scheme        Scheme
		name          string
		settle, purge time.Duration
		coreStats     bool
	}{
		{AllToAll, "All-to-all", 20 * time.Second, 15 * time.Second, false},
		{Gossip, "Gossip", 38339850002, 23339850002, false},
		{Hierarchical, "Hierarchical", 60000800 * time.Microsecond, 50 * time.Second, true},
		{HierarchicalProxy, "hierarchical+proxy", 80000800 * time.Microsecond, 50 * time.Second, true},
		{Rapid, "rapid", 44 * time.Second, 36 * time.Second, false},
		{HierarchicalAdaptive, "hierarchical+adaptive", 83000800 * time.Microsecond, 50 * time.Second, true},
		{RapidDC, "rapid+dc", 44 * time.Second, 36 * time.Second, false},
	}
	if len(rows) != len(schemes) {
		t.Fatalf("table has %d rows, test knows %d", len(schemes), len(rows))
	}
	owner := map[string]Scheme{}
	claim := func(s Scheme, spelling string) {
		t.Helper()
		key := strings.ToLower(spelling)
		if prev, taken := owner[key]; taken && prev != s {
			t.Errorf("%q names both %v and %v", spelling, prev, s)
		}
		owner[key] = s
		if got, err := ParseScheme(spelling); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", spelling, got, err, s)
		}
	}
	for i, r := range rows {
		if int(r.scheme) != i || r.scheme.String() != r.name {
			t.Errorf("row %d: scheme %d named %q, want %d %q", i, r.scheme, r.scheme, i, r.name)
		}
		claim(r.scheme, r.name)
		claim(r.scheme, SchemeNames()[i])
		for _, a := range schemes[r.scheme].aliases {
			claim(r.scheme, a)
		}
		if s, p := ChaosSettle(r.scheme, 24), ChaosPurgeBound(r.scheme, 24); s != r.settle || p != r.purge {
			t.Errorf("%v: settle/purge at n=24 = %d/%d, want %d/%d", r.scheme, s, p, r.settle, r.purge)
		}
		for _, n := range []int{24, 48} {
			if s, p := ChaosSettle(r.scheme, n), ChaosPurgeBound(r.scheme, n); !(s > p && p > 0) {
				t.Errorf("%v n=%d: want settle > purge > 0, got %v, %v", r.scheme, n, s, p)
			}
		}
		// Every scheme, federated or not, comes out of the one cell builder
		// and exposes core counters exactly when its nodes are core nodes.
		c := NewCell(r.scheme, nil, 2, 3, 1)
		c.StartAll()
		c.Run(3 * time.Second)
		st, ok := c.CoreStats()
		if ok != r.coreStats || ok != (st.HeartbeatsSent > 0) {
			t.Errorf("%v: CoreStats ok=%v heartbeats=%d, want ok=%v", r.scheme, ok, st.HeartbeatsSent, r.coreStats)
		}
	}
	for _, set := range [][]Scheme{comparedSchemes, ChaosSchemes, TrafficSchemes} {
		for _, s := range set {
			if s < 0 || int(s) >= len(schemes) {
				t.Errorf("column set names scheme %d, which is not in the table", int(s))
			}
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme has empty string")
	}
	if _, err := ParseScheme("bogus"); err == nil || !strings.Contains(err.Error(), "hierarchical+proxy") {
		t.Errorf("ParseScheme(bogus) error does not list the valid names: %v", err)
	}
}

func TestNewClusterRejectsFederatedScheme(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "NewCell") {
			t.Fatalf("NewCluster(HierarchicalProxy) panic = %q, want a pointer to NewCell", msg)
		}
	}()
	NewCluster(HierarchicalProxy, topology.Clustered(2, 3), 1)
}

// TestNewCellPicksClusterAndAudit pins the one place that chooses a cell's
// topology, federation and audit arming.
func TestNewCellPicksClusterAndAudit(t *testing.T) {
	wan, err := chaos.Find("wan-degrade", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := chaos.Find("kill-restart", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		scheme    Scheme
		sc        *chaos.Scenario
		groups    int
		hosts     int
		dcs       int
		federated bool
		reform    bool
	}{
		{"clustered", Hierarchical, lan, 3, 12, 1, false, true},
		{"flat LAN for one group", Gossip, nil, 1, 4, 1, false, false},
		{"scenario asks for multi-DC", Rapid, wan, 3, 24, 2, false, false},
		{"adaptive arms the reform audit too", HierarchicalAdaptive, lan, 3, 12, 1, false, true},
		{"federated spans two DCs on a single-DC scenario", HierarchicalProxy, lan, 3, 24, 2, true, false},
	}
	for _, tc := range cases {
		c := NewCell(tc.scheme, tc.sc, tc.groups, 4, 1)
		if got := c.Top.NumHosts(); got != tc.hosts || len(c.Nodes) != tc.hosts {
			t.Errorf("%s: %d hosts, %d nodes, want %d", tc.name, got, len(c.Nodes), tc.hosts)
		}
		if got := c.Top.HostDC(topology.HostID(tc.hosts-1)) + 1; got != tc.dcs {
			t.Errorf("%s: %d data centers, want %d", tc.name, got, tc.dcs)
		}
		if c.Scheme != tc.scheme {
			t.Errorf("%s: cluster labelled %v", tc.name, c.Scheme)
		}
		if (len(c.Env.Proxies) > 0) != tc.federated || c.Audit.IntraDCOnly != tc.federated {
			t.Errorf("%s: proxies=%d intraDC=%v, want federated=%v", tc.name, len(c.Env.Proxies), c.Audit.IntraDCOnly, tc.federated)
		}
		if armed := c.Audit.GroupBounds[1] > 0; armed != tc.reform || tc.scheme.ReformAudited() != tc.reform {
			t.Errorf("%s: reform audit armed=%v, want %v", tc.name, armed, tc.reform)
		}
		var end time.Duration
		if tc.sc != nil {
			end = tc.sc.End()
		}
		if want := end + ChaosSettle(tc.scheme, tc.hosts); c.Audit.Deadline != want {
			t.Errorf("%s: audit deadline %v, want %v", tc.name, c.Audit.Deadline, want)
		}
	}
}

// TestChaosMatrixMatchesCommittedBench re-runs a three-scenario slice of the
// chaos matrix at the default seed and compares every cell — verdict, view
// counts, re-formation outcome, per-invariant violations/checks — with the
// same cell of the committed BENCH_chaos.json, so the byte-identity contract
// behind every refactor is checked by `go test`, not only by the CI
// `tampbench -diff` step. skew-groups is in the slice for its one cell that
// arms the re-formation audit and never converges; switch-outage for the
// adaptive cell that failed seq-monotone 23 times (PRs 9-23) while a node's
// own directory record kept the beat it was written at, pinned clean here
// whatever the committed file says.
func TestChaosMatrixMatchesCommittedBench(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Seed    int64         `json:"seed"`
		Results []ChaosResult `json:"results"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	o := DefaultChaosOptions()
	if bench.Seed != o.Seed {
		t.Fatalf("BENCH_chaos.json was generated at seed %d, the default is %d", bench.Seed, o.Seed)
	}
	o.Scenarios = []string{"kill-restart", "skew-groups", "switch-outage"}
	got := ChaosMatrix(o)
	if len(got) != len(o.Scenarios)*len(ChaosSchemes) {
		t.Fatalf("slice has %d cells, want %d", len(got), len(o.Scenarios)*len(ChaosSchemes))
	}
	committed := map[string]string{}
	for _, r := range bench.Results {
		b, _ := json.Marshal(r)
		committed[r.Scenario+"/"+r.Scheme] = string(b)
	}
	for _, r := range got {
		b, _ := json.Marshal(r)
		if want := committed[r.Scenario+"/"+r.Scheme]; string(b) != want {
			t.Errorf("%s/%s differs from BENCH_chaos.json:\n got %s\nwant %s", r.Scenario, r.Scheme, b, want)
		}
		if r.Scenario == "switch-outage" && r.Scheme == HierarchicalAdaptive.String() {
			if v := (metrics.RunReport{Invariants: r.Invariants}).TotalViolations(); !r.Pass || v != 0 {
				t.Errorf("switch-outage/%s: pass %v with %d violations, want a clean cell", r.Scheme, r.Pass, v)
			}
		}
	}
	// The converge column comes from the result's own ReformAudited field.
	for _, line := range strings.Split(RenderChaosMatrix(got), "\n") {
		f := strings.Fields(line)
		if len(f) < 7 || f[0] != "skew-groups" {
			continue
		}
		if want, pinned := map[string]string{"Hierarchical": "never", "rapid": "-"}[f[1]]; pinned && f[6] != want {
			t.Errorf("skew-groups/%s converge column %q, want %q", f[1], f[6], want)
		}
	}
}

// TestEverySchemePublishesAlike: the publishing API is one implementation
// (membership.Publisher) under every scheme's node. Registering a service
// again replaces its declaration — before and after Start — instead of
// leaving the stale partitions advertised, and delete_value exists
// everywhere.
func TestEverySchemePublishesAlike(t *testing.T) {
	type publisher interface {
		RegisterService(name, partitions string, params ...membership.KV) error
		UpdateValue(key, value string)
		DeleteValue(key string) bool
		Info() membership.MemberInfo
	}
	for _, name := range SchemeNames() {
		scheme, err := ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCell(scheme, nil, 2, 3, 1)
		p, ok := c.Nodes[1].(publisher)
		if !ok {
			t.Errorf("%s: node lacks the publishing API", name)
			continue
		}
		others := len(p.Info().Services)
		check := func(when, partitions string) {
			t.Helper()
			if err := p.RegisterService("Cache", partitions); err != nil {
				t.Fatal(err)
			}
			want, _ := membership.ParsePartitions(partitions)
			svcs := p.Info().Services
			if len(svcs) != others+1 || svcs[others].Name != "Cache" || !reflect.DeepEqual(svcs[others].Partitions, want) {
				t.Errorf("%s %s: after registering Cache %s the node declares %+v", name, when, partitions, svcs)
			}
		}
		check("before start", "0-3")
		check("before start", "4-7")
		c.StartAll()
		c.Run(3 * time.Second)
		v := p.Info().Version
		check("running", "8-9")
		p.UpdateValue("load", "1")
		if !p.DeleteValue("load") || p.DeleteValue("load") {
			t.Errorf("%s: DeleteValue does not report presence", name)
		}
		if got := p.Info().Version; got != v+3 {
			t.Errorf("%s: three published changes moved the version %d -> %d", name, v, got)
		}
		dir := c.Nodes[1].Directory()
		if e := dir.Get(c.Nodes[1].ID()); e == nil || e.Version != v+3 || len(dir.Info(e).Services) != others+1 {
			t.Errorf("%s: own directory entry did not follow: %+v", name, e)
		}
	}
}
