package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proxy"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The membership proxy effectiveness experiment (§6.7): a prototype search
// engine in two data centers; the document retrieval service in data center
// A fails at fig14FailAt and recovers at fig14RecoverAt, and the gateway's
// traffic fails over to data center B through the membership proxies. The
// schedule is the paper's run.
const (
	fig14Duration      = 60 * time.Second
	fig14FailAt        = 20 * time.Second
	fig14RecoverAt     = 40 * time.Second
	fig14QueryInterval = 25 * time.Millisecond // 40 queries/s offered at the gateway
	fig14ServiceTime   = 3 * time.Millisecond  // index and doc server processing time
)

// figure14Cluster is the two-data-center search deployment.
type figure14Cluster struct {
	*Cluster
	dep     *proxy.Deployment
	gateway *service.Gateway
	docA    []Instance // DC A's doc servers (the failing service)
}

// buildFigure14 wires the deployment:
//
//	DC0 (data center A): host0 gateway, hosts 1-2 proxies, hosts 3-4 index
//	partitions 0-1, hosts 5-7 doc partitions 0-2.
//	DC1 (data center B): hosts 9-10 proxies, hosts 11-12 index partitions,
//	hosts 13-15 doc partitions 0-2.
func buildFigure14(seed int64) *figure14Cluster {
	// 8 hosts per DC, heartbeats at their natural size.
	f := &figure14Cluster{Cluster: newCluster(Hierarchical, topology.MultiDC(2, 2, 4), seed,
		func(cfg any) { cfg.(*core.Config).HeartbeatPad = 0 })}
	scfg := service.DefaultConfig()
	scfg.RequestTimeout = 500 * time.Millisecond
	f.dep = deploy(f.Cluster, 2, scfg)
	rt := func(h int) *service.Runtime { return f.dep.Hosts[h].RT }

	registerSearch := func(base int) {
		rt(base+3).Register(service.IndexService, "0", fig14ServiceTime, service.IndexHandler(3))
		rt(base+4).Register(service.IndexService, "1", fig14ServiceTime, service.IndexHandler(3))
		for i := 0; i < 3; i++ {
			rt(base+5+i).Register(service.DocService, fmt.Sprintf("%d", i), fig14ServiceTime, service.DocHandler())
		}
	}
	registerSearch(0) // DC A: index at 3-4, docs at 5-7
	registerSearch(8) // DC B: index at 11-12, docs at 13-15
	f.docA = f.Nodes[5:8]
	// A retry budget spanning the failure-detection window: requests that
	// arrive while the dead replicas are still listed keep retrying until
	// the membership service removes them and the proxy path takes over,
	// so they complete late instead of failing (the paper's throughput
	// only dips during detection).
	f.gateway = service.NewGateway(rt(0), 2, 14)
	return f
}

// Figure14 runs the experiment and returns the paper's two panels as one
// figure: mean response time (ms) and completed throughput (queries/s) per
// one-second bucket.
func Figure14(seed int64) *metrics.Figure {
	f := buildFigure14(seed)
	f.dep.StartAll(f.Eng)
	// Let membership and proxy summaries converge before time zero.
	f.Run(30 * time.Second)

	const seconds = int(fig14Duration / time.Second)
	sumMS := make([]float64, seconds)
	count := make([]int, seconds)
	errs := make([]int, seconds)

	t0 := f.Eng.Now()
	issue := func(i int) {
		q := fmt.Sprintf("query-%05d", i)
		f.gateway.Query(q, func(res service.QueryResult) {
			// Bucket by completion time: throughput is completed
			// queries per second, as the paper plots it.
			bucket := int((f.Eng.Now() - t0) / time.Second)
			if bucket < 0 || bucket >= seconds {
				return
			}
			if res.Err != nil {
				errs[bucket]++
				return
			}
			sumMS[bucket] += float64(res.Elapsed.Microseconds()) / 1000
			count[bucket]++
		})
	}
	paced(f.Eng, fig14QueryInterval, fig14Duration, issue)
	f.Eng.ScheduleAt(t0+fig14FailAt, func() {
		for _, n := range f.docA {
			n.Stop()
		}
	})
	f.Eng.ScheduleAt(t0+fig14RecoverAt, func() {
		for _, n := range f.docA {
			n.Start(f.Eng)
		}
	})
	f.Eng.Run(t0 + fig14Duration + 5*time.Second)

	fig := &metrics.Figure{
		Title:  "Figure 14: Effectiveness of membership proxy (fail@20s, recover@40s)",
		XLabel: "second",
		YLabel: "response ms | completed/s | failed/s",
	}
	resp := fig.AddSeries("response ms")
	thr := fig.AddSeries("throughput/s")
	fail := fig.AddSeries("failed/s")
	for s := 0; s < seconds; s++ {
		if count[s] > 0 {
			resp.Add(float64(s), sumMS[s]/float64(count[s]))
		} else {
			resp.Add(float64(s), 0)
		}
		thr.Add(float64(s), float64(count[s]))
		fail.Add(float64(s), float64(errs[s]))
	}
	return fig
}

// paced fires the callback with a running index every interval, exactly,
// from one interval after now until duration has passed.
func paced(eng *sim.Engine, interval, duration time.Duration, fire func(i int)) {
	until := eng.Now() + duration
	i := 0
	var next func()
	next = func() {
		if eng.Now() > until {
			return
		}
		fire(i)
		i++
		eng.Schedule(interval, next)
	}
	eng.Schedule(interval, next)
}
