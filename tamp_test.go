package tamp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestQuickstartFlow(t *testing.T) {
	cl := NewCluster(Clustered(3, 5))
	if err := cl.MustService(7).RegisterService("Cache", "0-3", KV{Key: "Port", Value: "9000"}); err != nil {
		t.Fatal(err)
	}
	cl.StartAll()
	if !cl.WaitConverged(time.Second, 30*time.Second) {
		t.Fatal("cluster never converged")
	}
	machines, err := cl.MustService(0).Client().LookupService("Cache", "2")
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 1 || machines[0].Node != 7 {
		t.Fatalf("lookup = %+v", machines)
	}
	if machines[0].Params[0].Value != "9000" {
		t.Fatalf("params = %+v", machines[0].Params)
	}
	if got := machines.Nodes(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Nodes() = %v", got)
	}
}

func TestMServiceFromConfigFile(t *testing.T) {
	system := `
*SYSTEM
MAX_TTL = 2
MCAST_PORT = 50
MCAST_FREQ = 2
MAX_LOSS = 3
`
	withServices := system + `
*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 1-2
`
	s := NewSim(Clustered(2, 3), 7)
	var services []*MService
	for h := 0; h < 6; h++ {
		text := system
		if h == 4 {
			text = withServices
		}
		m, err := NewMService(s, HostID(h), text)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		services = append(services, m)
	}
	s.Run(20 * time.Second)
	got, err := services[0].Client().LookupService("HTTP|Cache", "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("lookup = %+v", got)
	}
	if got[0].Service != "Cache" || got[1].Service != "HTTP" {
		t.Fatalf("services = %v %v", got[0].Service, got[1].Service)
	}
}

func TestMServiceBadConfig(t *testing.T) {
	s := NewSim(FlatLAN(2), 1)
	for _, bad := range []string{
		"*WAT\n",
		"*SYSTEM\nMAX_TTL = x\n",
		"*SYSTEM\nMCAST_FREQ = 0\n",
		"*SERVICE\n[X]\nPARTITION = nope\n",
		// Values that parse but the daemon cannot run with.
		"*SYSTEM\nMAX_TTL = 0\n",
		"*SYSTEM\nMAX_TTL = -3\n",
		"*SYSTEM\nMAX_TTL = 256\n", // an IP TTL is one byte
		"*SYSTEM\nMAX_LOSS = 0\n",
		"*SYSTEM\nMCAST_FREQ = 2000000000\n", // a zero heartbeat period
		"*SYSTEM\nMCAST_FREQ = 400000000\n",  // a period too short to jitter
	} {
		if _, err := NewMService(s, 0, bad); err == nil {
			t.Errorf("config %q accepted", bad)
		}
	}
	if _, err := NewMService(s, 0, "*SYSTEM\nMAX_TTL = 255\n"); err != nil {
		t.Errorf("MAX_TTL = 255 rejected: %v", err)
	}
}

// TestMServiceTimersFollowFrequency pins that MCAST_FREQ scales every
// protocol timer, not only the heartbeat: at 2 Hz a group leader
// republishes its directory every 5 s (ten heartbeats), not every 10 s.
func TestMServiceTimersFollowFrequency(t *testing.T) {
	const conf = "*SYSTEM\nMAX_TTL = 1\nMCAST_PORT = 50\nMCAST_FREQ = 2\n"
	s := NewSim(FlatLAN(4), 3)
	for h := 0; h < 3; h++ {
		m, err := NewMService(s, HostID(h), conf)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
	}
	// Host 3 runs no daemon; it listens on the group channel and counts the
	// leader's (host 0's) directory snapshots over a steady 40 s.
	var snapshots int
	sniffer := s.net.Endpoint(3)
	sniffer.Join(50)
	sniffer.SetHandler(func(pkt netsim.Packet) {
		if msg, err := pkt.Decode(); err == nil && pkt.Src == 0 && s.Now() >= 20*time.Second {
			if _, ok := msg.(*wire.DirectoryView); ok {
				snapshots++
			}
		}
	})
	s.Run(60 * time.Second)
	if snapshots != 8 {
		t.Errorf("leader multicast %d directory snapshots in 40 s at 2 Hz, want 8 (one per 5 s)", snapshots)
	}
}

func TestUpdateAndDeleteValue(t *testing.T) {
	cl := NewCluster(FlatLAN(4))
	cl.StartAll()
	cl.Run(10 * time.Second)
	cl.MustService(2).UpdateValue("weight", "3")
	cl.Run(5 * time.Second)
	got, _ := cl.MustService(0).Client().LookupService(".*", "*")
	_ = got
	ms, _ := cl.MustService(0).Client().LookupService(".*", "*")
	_ = ms
	// Attr visible cluster-wide via any lookup of node 2's entries is
	// checked at the directory level in internal tests; here check the
	// client surface end to end using a service.
	cl.MustService(2).RegisterService("S", "0")
	cl.Run(5 * time.Second)
	found, err := cl.MustService(1).Client().LookupService("S", "*")
	if err != nil || len(found) != 1 {
		t.Fatalf("lookup: %v %v", found, err)
	}
	var weight string
	for _, kv := range found[0].Attrs {
		if kv.Key == "weight" {
			weight = kv.Value
		}
	}
	if weight != "3" {
		t.Fatalf("weight attr = %q", weight)
	}
	if !cl.MustService(2).DeleteValue("weight") {
		t.Fatal("DeleteValue reported absent")
	}
	cl.Run(5 * time.Second)
	found, _ = cl.MustService(1).Client().LookupService("S", "*")
	for _, kv := range found[0].Attrs {
		if kv.Key == "weight" {
			t.Fatal("deleted attr still visible")
		}
	}
}

func TestFailureVisibleThroughClient(t *testing.T) {
	cl := NewCluster(Clustered(2, 4))
	cl.StartAll()
	cl.Run(15 * time.Second)
	if n := cl.MustService(0).Client().Len(); n != 8 {
		t.Fatalf("members = %d, want 8", n)
	}
	cl.MustService(5).Stop()
	cl.Run(30 * time.Second)
	if !cl.Converged() {
		t.Fatal("views did not converge after failure")
	}
	if n := cl.MustService(0).Client().Len(); n != 7 {
		t.Fatalf("members = %d after failure, want 7", n)
	}
	if cl.MustService(0).IsLeader(0) != true {
		t.Fatal("node 0 should lead its group")
	}
}

func TestServeDirectoryIPC(t *testing.T) {
	cl := NewCluster(Clustered(2, 3))
	cl.MustService(4).RegisterService("KV", "0-3")
	cl.StartAll()
	cl.Run(15 * time.Second)
	srv, err := cl.MustService(0).ServeDirectory()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Lookup("KV", "2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != 4 {
		t.Fatalf("IPC lookup = %+v", got)
	}
	// A graceful departure propagates through the socket view too.
	cl.MustService(4).Leave()
	cl.Run(5 * time.Second)
	got, err = c.Lookup("KV", "2")
	if err != nil || len(got) != 0 {
		t.Fatalf("departed provider still served over IPC: %+v, %v", got, err)
	}
}

func TestGracefulLeavePublicAPI(t *testing.T) {
	cl := NewCluster(Clustered(2, 4))
	cl.StartAll()
	cl.Run(15 * time.Second)
	before := cl.Now()
	cl.MustService(6).Leave()
	for !cl.Converged() {
		cl.Run(100 * time.Millisecond)
	}
	if lag := cl.Now() - before; lag > time.Second {
		t.Fatalf("graceful leave took %v to converge; want sub-second", lag)
	}
	if st := cl.MustService(0).node.Stats(); st.HeartbeatsSent == 0 {
		t.Fatal("protocol stats empty")
	}
}

func TestLossySimConverges(t *testing.T) {
	cl := NewClusterSeed(Clustered(2, 5), 9)
	cl.net.SetLossProbability(0.03)
	cl.StartAll()
	if !cl.WaitConverged(time.Second, 60*time.Second) {
		t.Fatal("lossy cluster never converged")
	}
}
