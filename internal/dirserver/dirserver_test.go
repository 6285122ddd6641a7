package dirserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func info(n membership.NodeID, svc string, parts ...int32) membership.MemberInfo {
	return membership.MemberInfo{
		Node:     n,
		Services: []membership.ServiceDecl{{Name: svc, Partitions: parts}},
	}
}

func TestServeAndLookup(t *testing.T) {
	s, err := Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Publish([]membership.MemberInfo{
		info(1, "Cache", 0, 1),
		info(2, "Cache", 2),
		info(3, "HTTP", 0),
	})
	c, err := DialClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.Lookup("Cache", "1-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 2 {
		t.Fatalf("matches = %+v", got)
	}
	got, err = c.Lookup(".*", "*")
	if err != nil || len(got) != 3 {
		t.Fatalf("wildcard = %+v, %v", got, err)
	}
	// Bad regex surfaces as a query error, connection stays usable.
	if _, err := c.Lookup("(", "*"); !errors.Is(err, ErrQuery) {
		t.Fatalf("bad regex error = %v", err)
	}
	if _, err := c.Lookup("HTTP", "*"); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
	// So does a partition list naming more partitions than the parser takes.
	if _, err := c.Lookup("Cache", "0-2147483647"); !errors.Is(err, ErrQuery) {
		t.Fatalf("oversized partition list error = %v", err)
	}
	if _, err := c.Lookup("HTTP", "*"); err != nil {
		t.Fatalf("connection unusable after oversized list: %v", err)
	}
}

func TestRepublishChangesResults(t *testing.T) {
	s, _ := Serve()
	defer s.Close()
	s.Publish([]membership.MemberInfo{info(1, "S", 0)})
	c, _ := DialClient(s.Addr())
	defer c.Close()
	got, _ := c.Lookup("S", "*")
	if len(got) != 1 {
		t.Fatalf("initial = %+v", got)
	}
	s.Publish([]membership.MemberInfo{info(2, "S", 0), info(3, "S", 1)})
	got, _ = c.Lookup("S", "*")
	if len(got) != 2 || got[0].Node != 2 {
		t.Fatalf("after republish = %+v", got)
	}
	if s.snap.Len() != 2 {
		t.Fatalf("Members = %d", s.snap.Len())
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := Serve()
	defer s.Close()
	var infos []membership.MemberInfo
	for i := 0; i < 20; i++ {
		infos = append(infos, info(membership.NodeID(i), fmt.Sprintf("S%d", i%4), int32(i)))
	}
	s.Publish(infos)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialClient(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				got, err := c.Lookup("S1", "*")
				if err != nil {
					errs <- err
					return
				}
				if len(got) != 5 {
					errs <- fmt.Errorf("got %d matches, want 5", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDaemonIntegration wires a simulated membership daemon to the
// directory server: every directory change republishes, and an external
// client process (this test goroutine) sees the cluster through the
// socket — the full §5 architecture.
func TestDaemonIntegration(t *testing.T) {
	top := topology.Clustered(2, 3)
	eng := sim.NewEngine(5)
	net := netsim.New(eng, top)
	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	var nodes []*core.Node
	for h := 0; h < 6; h++ {
		nodes = append(nodes, core.NewNode(cfg, net.Endpoint(topology.HostID(h))))
	}
	nodes[5].RegisterService("Retriever", "0-2")

	s, err := Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The daemon on node 0 republishes on every view change (debounced in
	// a real deployment; immediate is fine here).
	daemon := nodes[0]
	daemon.Directory().AddObserver(func(membership.Event) {
		s.Publish(daemon.Directory().Snapshot())
	})

	for _, n := range nodes {
		n.Start(eng)
	}
	eng.Run(15 * time.Second)
	s.Publish(daemon.Directory().Snapshot()) // final state

	c, err := DialClient(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Lookup("Retriever", "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != 5 {
		t.Fatalf("client sees %+v", got)
	}

	// Kill the provider; after detection the client's view updates.
	nodes[5].Stop()
	eng.Run(eng.Now() + 30*time.Second)
	got, err = c.Lookup("Retriever", "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("dead provider still served to IPC clients: %+v", got)
	}
}

func TestClientDialFailure(t *testing.T) {
	if _, err := DialClient("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
