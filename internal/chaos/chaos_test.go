package chaos

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fakeNode is a minimal daemon: just the running flag and a directory.
type fakeNode struct {
	id      membership.NodeID
	running bool
	dir     *membership.Directory
	leader  bool
}

func (n *fakeNode) ID() membership.NodeID            { return n.id }
func (n *fakeNode) Start(*sim.Engine)                { n.running = true }
func (n *fakeNode) Stop()                            { n.running = false }
func (n *fakeNode) Directory() *membership.Directory { return n.dir }
func (n *fakeNode) Running() bool                    { return n.running }
func (n *fakeNode) IsLeader(level int) bool          { return n.leader }

// engOf unwraps the concrete engine behind Env.Eng for tests that drive the
// clock directly (serial runs always hold a *sim.Engine there).
func engOf(e *Env) *sim.Engine { return e.Eng.(*sim.Engine) }

func newFakeEnv(t *testing.T, top *topology.Topology) (*Env, []*fakeNode) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, top)
	fakes := make([]*fakeNode, top.NumHosts())
	nodes := make([]Node, top.NumHosts())
	for i := range fakes {
		fakes[i] = &fakeNode{id: membership.NodeID(i), running: true,
			dir: membership.NewDirectory(membership.NodeID(i))}
		nodes[i] = fakes[i]
	}
	return NewEnv(eng, net, top, nodes), fakes
}

func TestChaosGroupsFromTopology(t *testing.T) {
	env, _ := newFakeEnv(t, topology.Clustered(3, 4))
	groups := env.Groups()
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	for g, hosts := range groups {
		if len(hosts) != 4 {
			t.Fatalf("group %d has %d hosts", g, len(hosts))
		}
		for i, h := range hosts {
			if int(h) != g*4+i {
				t.Fatalf("group %d = %v, want contiguous block", g, hosts)
			}
		}
	}
}

func TestChaosKillRestartTimeline(t *testing.T) {
	env, fakes := newFakeEnv(t, topology.Clustered(2, 3))
	sc := &Scenario{Steps: Steps("@10s kill 1\n@30s restart 1")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(11 * time.Second)
	if fakes[1].running {
		t.Fatal("node 1 still running after kill")
	}
	if !fakes[0].running || !fakes[2].running {
		t.Fatal("kill hit the wrong nodes")
	}
	engOf(env).Run(31 * time.Second)
	if !fakes[1].running {
		t.Fatal("node 1 not restarted")
	}
}

func TestChaosGroupOutageAndLeaderKill(t *testing.T) {
	env, fakes := newFakeEnv(t, topology.Clustered(2, 3))
	fakes[4].leader = true // group 1 = hosts 3,4,5
	sc := &Scenario{Steps: Steps("@1s kill-leader 1\n@2s group-outage 0\n@3s group-restart 0")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(90 * time.Second)
	if fakes[4].running {
		t.Fatal("leader of group 1 survived kill-leader")
	}
	if !fakes[3].running || !fakes[5].running {
		t.Fatal("kill-leader hit non-leaders")
	}
	for i := 0; i < 3; i++ {
		if !fakes[i].running {
			t.Fatalf("group 0 node %d not restarted after outage", i)
		}
	}
}

func TestChaosKillLeaderFallsBackToLowestRunning(t *testing.T) {
	env, fakes := newFakeEnv(t, topology.Clustered(2, 3))
	fakes[3].running = false // lowest in group 1 already down
	sc := &Scenario{Steps: Steps("@1s kill-leader 1")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(2 * time.Second)
	if fakes[4].running {
		t.Fatal("fallback victim (lowest running member) survived")
	}
	if !fakes[5].running {
		t.Fatal("wrong fallback victim")
	}
}

func TestChaosFlapCycles(t *testing.T) {
	env, fakes := newFakeEnv(t, topology.FlatLAN(3))
	sc := &Scenario{Steps: Steps("@10s flap 2 down=2s up=3s count=2")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	check := func(at time.Duration, want bool) {
		engOf(env).Run(at)
		if fakes[2].running != want {
			t.Fatalf("at %v: running=%v, want %v", at, fakes[2].running, want)
		}
	}
	check(10*time.Second+time.Millisecond, false) // first down
	check(12*time.Second+time.Millisecond, true)  // first up
	check(15*time.Second+time.Millisecond, false) // second down
	check(17*time.Second+time.Millisecond, true)  // stays up after last cycle
	if got, want := sc.End(), 20*time.Second; got != want {
		t.Fatalf("End() = %v, want %v", got, want)
	}
}

func TestChaosFaultActionsMutateTopology(t *testing.T) {
	env, _ := newFakeEnv(t, topology.Clustered(2, 3))
	sc := &Scenario{Steps: Steps("@1s fail-link sw1 core\n@2s fail-device sw1\n@3s repair-device sw1\n@4s repair-link sw1 core")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	epoch0 := env.Top.Epoch()
	engOf(env).Run(2500 * time.Millisecond)
	// Hosts 3 and 4 sit under sw1: only the failed device, not the failed
	// uplink, parts them.
	if lat, _ := env.Top.UnicastPath(3, 4); lat >= 0 {
		t.Fatal("sw1 not failed")
	}
	if lat, _ := env.Top.UnicastPath(0, 3); lat >= 0 {
		t.Fatal("cross-group path survived switch failure")
	}
	engOf(env).Run(5 * time.Second)
	if lat, _ := env.Top.UnicastPath(3, 4); lat < 0 {
		t.Fatal("sw1 not repaired")
	}
	if lat, _ := env.Top.UnicastPath(0, 3); lat < 0 {
		t.Fatal("cross-group path not restored")
	}
	if env.Top.Epoch() == epoch0 {
		t.Fatal("failure timeline did not advance the topology epoch")
	}
}

func TestChaosLossRampReachesTarget(t *testing.T) {
	env, _ := newFakeEnv(t, topology.FlatLAN(4))
	sc := &Scenario{Steps: Steps("@1s loss-ramp 0 0.9 10s 9")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(30 * time.Second)
	// With loss at 0.9, most multicast deliveries must drop.
	for _, h := range []topology.HostID{1, 2, 3} {
		env.Net.Endpoint(h).Join(1)
	}
	for i := 0; i < 100; i++ {
		env.Net.Endpoint(0).Multicast(1, 1, []byte("x"))
	}
	engOf(env).RunAll()
	st := env.Net.TotalStats()
	if st.Dropped < 200 { // E[dropped] = 270 of 300
		t.Fatalf("ramp did not reach high loss: dropped=%d of %d", st.Dropped, st.Dropped+st.PktsRecv)
	}
}

func TestChaosInstallValidation(t *testing.T) {
	env, _ := newFakeEnv(t, topology.Clustered(2, 3))
	negative := Steps("@1s kill 0")
	negative[0].At = -time.Second
	bad := []*Scenario{
		{Steps: Steps("@1s kill 99")},
		{Steps: Steps("@1s group-outage 7")},
		{Steps: Steps("@1s fail-device nope")},
		{Steps: Steps("@1s wan-fault")}, // no WAN links here
		{Steps: negative},
		{Steps: []Step{{At: time.Second}}}, // the zero Action
	}
	for i, sc := range bad {
		if err := sc.Install(env); err == nil {
			t.Errorf("scenario %d installed despite invalid step", i)
		}
	}
	if _, ok := engOf(env).NextEventAt(); ok {
		t.Fatal("failed installs left events scheduled")
	}
}

func TestChaosWANFaultOnMultiDC(t *testing.T) {
	env, _ := newFakeEnv(t, topology.MultiDC(2, 2, 2))
	sc := &Scenario{Steps: Steps("@1s wan-fault loss=0.999999999")}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(2 * time.Second)
	// Unicast across the WAN is now (almost) always dropped; local is not.
	local, remote := 0, 0
	env.Net.Endpoint(1).SetHandler(func(netsim.Packet) { local++ })
	env.Net.Endpoint(7).SetHandler(func(netsim.Packet) { remote++ })
	for i := 0; i < 50; i++ {
		env.Net.Endpoint(0).Unicast(1, []byte("x"))
		env.Net.Endpoint(0).Unicast(7, []byte("x"))
	}
	engOf(env).RunAll()
	if local != 50 {
		t.Fatalf("intra-DC unicast suffered WAN fault: %d of 50", local)
	}
	if remote > 2 {
		t.Fatalf("WAN unicast survived ~certain loss: %d of 50", remote)
	}
}
