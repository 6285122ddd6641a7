package invariant

import (
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/topology"
)

type fakeNode struct {
	id      membership.NodeID
	running bool
	dir     *membership.Directory
	leader  bool
}

func (n *fakeNode) ID() membership.NodeID            { return n.id }
func (n *fakeNode) Running() bool                    { return n.running }
func (n *fakeNode) Directory() *membership.Directory { return n.dir }
func (n *fakeNode) IsLeader(level int) bool          { return n.leader }

func setup(t *testing.T, top *topology.Topology) (*sim.Engine, []*fakeNode, []Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	fakes := make([]*fakeNode, top.NumHosts())
	nodes := make([]Node, top.NumHosts())
	for i := range fakes {
		fakes[i] = &fakeNode{id: membership.NodeID(i), running: true,
			dir: membership.NewDirectory(membership.NodeID(i))}
		nodes[i] = fakes[i]
	}
	return eng, fakes, nodes
}

// fill makes every node's directory contain every node with incarnation 1.
func fill(fakes []*fakeNode, now time.Duration) {
	for _, f := range fakes {
		for _, g := range fakes {
			f.dir.Upsert(membership.MemberInfo{Node: g.id, Incarnation: 1},
				membership.OriginDirect, 0, membership.NoNode, now)
		}
	}
}

func violations(a *Auditor, name string) (uint64, uint64) {
	for _, r := range a.Results() {
		if r.Name == name {
			return r.Violations, r.Checks
		}
	}
	return 0, 0
}

func TestChaosAuditAllCleanWhenConverged(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	a := New(eng, top, nodes, Options{Deadline: 5 * time.Second, PurgeBound: 10 * time.Second, LeaderGrace: 3 * time.Second})
	fakes[0].leader = true // one leader per group is fine
	fakes[3].leader = true
	a.Start()
	eng.Run(20 * time.Second)
	// The federation invariants are inert without an attached Federation,
	// flap-freedom only checks event-driven leave events, and
	// reform-converge is disarmed without Options.GroupBounds; all of them
	// legitimately report zero checks here.
	fedOnly := map[string]bool{"summary-fresh": true, "summary-truth": true,
		"vip-unique": true, "flap-freedom": true, "reform-converge": true}
	for _, r := range a.Results() {
		if r.Violations != 0 {
			t.Fatalf("%s: %d violations on a clean cluster\n%s", r.Name, r.Violations, a.Report())
		}
		if r.Name != "leader-unique" && !fedOnly[r.Name] && r.Checks == 0 {
			t.Fatalf("%s: no checks ran", r.Name)
		}
	}
	if v, c := violations(a, "leader-unique"); c == 0 || v != 0 {
		t.Fatalf("leader-unique: violations=%d checks=%d", v, c)
	}
}

func TestChaosAuditCompletenessViolation(t *testing.T) {
	top := topology.FlatLAN(3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	// Node 0 never learns about node 2.
	fakes[0].dir.Remove(2, 0)
	a := New(eng, top, nodes, Options{Deadline: 5 * time.Second, PurgeBound: time.Hour})
	a.Start()
	eng.Run(4 * time.Second)
	if v, _ := violations(a, "completeness"); v != 0 {
		t.Fatalf("completeness enforced before the deadline: %d", v)
	}
	eng.Run(10 * time.Second)
	if v, _ := violations(a, "completeness"); v == 0 {
		t.Fatal("missing running node not reported after deadline")
	}
	if !strings.Contains(a.Report(), "completeness  FAIL") {
		t.Fatalf("report does not show the failure:\n%s", a.Report())
	}
}

func TestChaosAuditCompletenessSkipsUnreachable(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	// Partition group 1, then drop it from group 0's views: not a
	// completeness violation while the partition stands.
	sw1, _ := top.FindDevice("sw1")
	core, _ := top.FindDevice("core")
	top.FailLink(sw1.ID, core.ID)
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			fakes[i].dir.Remove(membership.NodeID(j), 0)
			fakes[j].dir.Remove(membership.NodeID(i), 0)
		}
	}
	a := New(eng, top, nodes, Options{Deadline: time.Second, PurgeBound: time.Hour})
	a.Start()
	eng.Run(10 * time.Second)
	if v, _ := violations(a, "completeness"); v != 0 {
		t.Fatalf("unreachable nodes counted against completeness: %d\n%s", v, a.Report())
	}
}

func TestChaosAuditPhantomViolation(t *testing.T) {
	top := topology.FlatLAN(3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: 5 * time.Second})
	a.Start()
	eng.Run(2 * time.Second)
	fakes[2].running = false // dies; views never purge it
	eng.Run(6 * time.Second)
	if v, _ := violations(a, "no-phantoms"); v != 0 {
		t.Fatalf("phantom reported before the purge bound: %d", v)
	}
	eng.Run(12 * time.Second)
	if v, _ := violations(a, "no-phantoms"); v == 0 {
		t.Fatal("phantom not reported after the purge bound")
	}
}

func TestChaosAuditPhantomGraceForRestartedObserver(t *testing.T) {
	top := topology.FlatLAN(3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: 5 * time.Second})
	a.Start()
	eng.Run(2 * time.Second)
	fakes[1].running = false // both down together
	fakes[2].running = false
	// Node 0 purges them promptly, as a correct protocol would.
	fakes[0].dir.Remove(1, eng.Now())
	fakes[0].dir.Remove(2, eng.Now())
	eng.Run(22 * time.Second)
	// Node 1 restarts with its stale directory still listing node 2;
	// node 2 stays dead. Node 1 gets PurgeBound to notice, then violates.
	fakes[1].running = true
	eng.Run(26 * time.Second)
	if v, _ := violations(a, "no-phantoms"); v != 0 {
		t.Fatalf("restarted observer punished during its grace: %d\n%s", v, a.Report())
	}
	eng.Run(32 * time.Second)
	if v, _ := violations(a, "no-phantoms"); v == 0 {
		t.Fatal("stale entry kept past the restarted observer's grace not reported")
	}
}

func TestChaosAuditSeqRegressionViolation(t *testing.T) {
	top := topology.FlatLAN(2)
	eng, fakes, nodes := setup(t, top)
	for _, f := range fakes {
		f.dir.Upsert(membership.MemberInfo{Node: 1, Incarnation: 3, Beat: 7},
			membership.OriginDirect, 0, membership.NoNode, 0)
	}
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: time.Hour})
	a.Start()
	eng.Run(2 * time.Second)
	// Stale resurrection: the entry vanishes and returns with an older
	// incarnation (Upsert alone would refuse to regress a live entry).
	fakes[0].dir.Remove(1, eng.Now())
	fakes[0].dir.Upsert(membership.MemberInfo{Node: 1, Incarnation: 2, Beat: 9},
		membership.OriginDirect, 0, membership.NoNode, eng.Now())
	eng.Run(4 * time.Second)
	if v, _ := violations(a, "seq-monotone"); v == 0 {
		t.Fatalf("incarnation regression not reported\n%s", a.Report())
	}
}

func TestChaosAuditLeaderUniqueViolation(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	fakes[3].leader = true // two reachable claimants in group 1
	fakes[4].leader = true
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: time.Hour, LeaderGrace: 3 * time.Second})
	a.Start()
	eng.Run(2 * time.Second)
	if v, _ := violations(a, "leader-unique"); v != 0 {
		t.Fatalf("leader-unique enforced before the grace period: %d", v)
	}
	eng.Run(5 * time.Second)
	if v, _ := violations(a, "leader-unique"); v == 0 {
		t.Fatal("reachable co-leaders not reported after grace")
	}
}

func TestChaosAuditFlapFreedomViolation(t *testing.T) {
	top := topology.FlatLAN(3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: 2 * time.Second,
		EventDriven: true})
	a.Start()
	eng.Run(flapWarmup + 5*time.Second)
	// First mistaken eviction of a healthy peer: charged to the stability
	// metric, but one mistake per pair is not yet a flap.
	fakes[0].dir.Remove(2, eng.Now())
	if v, c := violations(a, "flap-freedom"); v != 0 || c != 1 {
		t.Fatalf("first eviction: violations=%d checks=%d, want 0/1", v, c)
	}
	if vc, sp := a.Stability(); vc != 1 || sp != 1 {
		t.Fatalf("Stability() = (%d, %d), want (1, 1)", vc, sp)
	}
	// Readmit, then evict again: the same (observer, subject) pair flapping
	// is the violation.
	fakes[0].dir.Upsert(membership.MemberInfo{Node: 2, Incarnation: 2},
		membership.OriginDirect, 0, membership.NoNode, eng.Now())
	fakes[0].dir.Remove(2, eng.Now())
	if v, _ := violations(a, "flap-freedom"); v == 0 {
		t.Fatalf("repeated eviction of the same healthy node not reported\n%s", a.Report())
	}
	if vc, sp := a.Stability(); vc != 3 || sp != 2 {
		t.Fatalf("Stability() = (%d, %d), want (3, 2)", vc, sp)
	}
}

func TestChaosAuditFlapFreedomSkipsWarmupAndDead(t *testing.T) {
	top := topology.FlatLAN(3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: 2 * time.Second,
		EventDriven: true})
	a.Start()
	// Boot-convergence churn inside the warmup is free.
	eng.Run(2 * time.Second)
	fakes[0].dir.Remove(2, eng.Now())
	fakes[0].dir.Upsert(membership.MemberInfo{Node: 2, Incarnation: 2},
		membership.OriginDirect, 0, membership.NoNode, eng.Now())
	fakes[0].dir.Remove(2, eng.Now())
	if vc, sp := a.Stability(); vc != 0 || sp != 0 {
		t.Fatalf("warmup churn counted: Stability() = (%d, %d)", vc, sp)
	}
	// Purging a genuinely dead subject is correct behavior, however often.
	eng.Run(flapWarmup + 5*time.Second)
	fakes[2].running = false
	fakes[1].dir.Remove(2, eng.Now())
	fakes[1].dir.Upsert(membership.MemberInfo{Node: 2, Incarnation: 3},
		membership.OriginDirect, 0, membership.NoNode, eng.Now())
	fakes[1].dir.Remove(2, eng.Now())
	if v, _ := violations(a, "flap-freedom"); v != 0 {
		t.Fatalf("purging a dead node reported as a flap\n%s", a.Report())
	}
	if _, sp := a.Stability(); sp != 0 {
		t.Fatalf("purging a dead node counted as spurious: %d", sp)
	}
}

func TestChaosAuditLeaderSplitAcrossPartitionAllowed(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng, fakes, nodes := setup(t, top)
	fill(fakes, 0)
	// Group 1's switch dies: members cannot reach each other, so two
	// claimants are not split-brain the protocol could have avoided.
	sw1, _ := top.FindDevice("sw1")
	top.FailDevice(sw1.ID)
	fakes[3].leader = true
	fakes[4].leader = true
	a := New(eng, top, nodes, Options{Deadline: time.Hour, PurgeBound: time.Hour, LeaderGrace: 2 * time.Second})
	a.Start()
	eng.Run(10 * time.Second)
	if v, _ := violations(a, "leader-unique"); v != 0 {
		t.Fatalf("partitioned co-leaders counted as split-brain: %d\n%s", v, a.Report())
	}
}
