package service

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestIndexHandlerDeterministicAndTagged(t *testing.T) {
	h := IndexHandler(3)
	a, err := h(0, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := h(0, []byte("query"))
	if string(a) != string(b) {
		t.Fatal("index results not deterministic")
	}
	c, _ := h(1, []byte("query"))
	if string(a) == string(c) {
		t.Fatal("different partitions returned identical hits")
	}
	for _, id := range strings.Split(string(a), ",") {
		part, doc, ok := splitDocID(id)
		if !ok {
			t.Fatalf("malformed doc id %q", id)
		}
		if part < 0 || part >= 3 {
			t.Fatalf("doc partition %d out of range", part)
		}
		if doc == "" {
			t.Fatal("empty doc id")
		}
	}
}

func TestDocHandlerTranslates(t *testing.T) {
	h := DocHandler()
	out, err := h(2, []byte("123, 456,"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, "doc[123]@p2") || !strings.Contains(s, "doc[456]@p2") {
		t.Fatalf("translation = %q", s)
	}
	if strings.Count(s, "doc[") != 2 {
		t.Fatalf("empty id produced a doc: %q", s)
	}
}

func TestSplitDocID(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		part int32
		doc  string
	}{
		{"2:99", true, 2, "99"},
		{"0:x", true, 0, "x"},
		{"x:1", false, 0, ""},
		{":1", false, 0, ""},
		{"31", false, 0, ""},
		{"", false, 0, ""},
	}
	for _, c := range cases {
		part, doc, ok := splitDocID(c.in)
		if ok != c.ok || (ok && (part != c.part || doc != c.doc)) {
			t.Errorf("splitDocID(%q) = %d,%q,%v", c.in, part, doc, ok)
		}
	}
}

// searchFixture builds a single-DC search deployment on a flat LAN.
func searchFixture(t *testing.T, docReplicas int) (*fixture, *Gateway) {
	t.Helper()
	f := newFixture(t, topology.FlatLAN(2+2+3*docReplicas))
	// hosts: 0 gateway, 1-2 index partitions 0-1, then doc partitions.
	f.runtimes[1].Register(IndexService, "0", time.Millisecond, IndexHandler(3))
	f.runtimes[2].Register(IndexService, "1", time.Millisecond, IndexHandler(3))
	h := 3
	for p := 0; p < 3; p++ {
		for r := 0; r < docReplicas; r++ {
			f.runtimes[h].Register(DocService, fmt.Sprint(p), time.Millisecond, DocHandler())
			h++
		}
	}
	f.startAll()
	f.run(15 * time.Second)
	return f, NewGateway(f.runtimes[0], 2, 2)
}

func TestGatewayQueryWorkflow(t *testing.T) {
	f, gw := searchFixture(t, 1)
	var res QueryResult
	done := false
	gw.Query("hello world", func(r QueryResult) { res, done = r, true })
	f.run(time.Second)
	if !done {
		t.Fatal("query never completed")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// 2 index partitions x 2 hits = 4 docs in the compiled result.
	if got := strings.Count(res.Result, "doc["); got != 4 {
		t.Fatalf("result has %d docs, want 4: %q", got, res.Result)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestGatewayFailsWhenIndexPartitionDead(t *testing.T) {
	f, gw := searchFixture(t, 1)
	f.nodes[2].Stop() // index partition 1, sole replica
	f.run(10 * time.Second)
	var res QueryResult
	gw.Query("q", func(r QueryResult) { res = r })
	f.run(5 * time.Second)
	if res.Err == nil {
		t.Fatal("query succeeded without index partition 1")
	}
	if !strings.Contains(res.Err.Error(), "index p1") {
		t.Fatalf("error does not identify the failing stage: %v", res.Err)
	}
}

func TestGatewayRetriesMaskReplicaFailure(t *testing.T) {
	f, gw := searchFixture(t, 2)
	// Kill one replica of each doc partition; detection hasn't happened,
	// so the first attempt may hit a corpse — retries must mask it.
	for _, h := range []int{3, 5, 7} {
		f.net.Endpoint(topology.HostID(h)).SetUp(false)
	}
	okCount := 0
	for i := 0; i < 10; i++ {
		gw.Query(fmt.Sprintf("q%d", i), func(r QueryResult) {
			if r.Err == nil {
				okCount++
			}
		})
		f.run(3 * time.Second)
	}
	if okCount != 10 {
		t.Fatalf("only %d/10 queries survived replica failures with retries", okCount)
	}
}

// TestGatewayQueryIsDeterministic: the doc fetches of one query are separate
// sends whose order decides which replica each poll lands on, the order the
// descriptions come back in, and every loss draw after them. One seed must
// give one run: the same seeded workload rerun in one process yields the
// same result strings and the same packet counts every time.
func TestGatewayQueryIsDeterministic(t *testing.T) {
	run := func() (results []string, traffic netsim.Stats) {
		f, gw := searchFixture(t, 2)
		f.net.SetLossProbability(0.05)
		for i := 0; i < 5; i++ {
			gw.Query(fmt.Sprintf("q%d", i), func(r QueryResult) { results = append(results, fmt.Sprint(r.Result, r.Err)) })
			f.run(3 * time.Second)
		}
		return results, f.net.TotalStats()
	}
	want, wantTraffic := run()
	if len(want) != 5 || !strings.Contains(want[0], ";") {
		t.Fatalf("the workload joins no doc partitions: %q", want)
	}
	for rerun := 1; rerun <= 20; rerun++ {
		if got, traffic := run(); !slices.Equal(got, want) || traffic != wantTraffic {
			t.Fatalf("rerun %d differs:\n%q, %+v\nfirst run:\n%q, %+v", rerun, got, traffic, want, wantTraffic)
		}
	}
}
