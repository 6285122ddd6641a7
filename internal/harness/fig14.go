package harness

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proxy"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Figure14Options parametrize the membership proxy effectiveness
// experiment (§6.7): a prototype search engine in two data centers; the
// document retrieval service in data center A fails at FailAt and recovers
// at RecoverAt, and the gateway's traffic fails over to data center B
// through the membership proxies.
type Figure14Options struct {
	Seed          int64
	Duration      time.Duration
	FailAt        time.Duration
	RecoverAt     time.Duration
	QueryInterval time.Duration // request arrival period at the gateway
	// Poisson switches the arrival process from deterministic pacing to a
	// memoryless stream at rate 1/QueryInterval (independent Internet
	// users rather than a load generator).
	Poisson   bool
	IndexTime time.Duration // index server processing time
	DocTime   time.Duration // doc server processing time
}

// DefaultFigure14Options reproduce the paper's run: 60 seconds, failure at
// 20 s, recovery at 40 s.
func DefaultFigure14Options() Figure14Options {
	return Figure14Options{
		Seed:          42,
		Duration:      60 * time.Second,
		FailAt:        20 * time.Second,
		RecoverAt:     40 * time.Second,
		QueryInterval: 25 * time.Millisecond, // 40 queries/s offered load
		IndexTime:     3 * time.Millisecond,
		DocTime:       3 * time.Millisecond,
	}
}

// figure14Cluster is the two-data-center search deployment.
type figure14Cluster struct {
	eng     *sim.Engine
	nodes   []*core.Node
	proxies []*proxy.Proxy
	gateway *service.Gateway
	docA    []*core.Node // DC A's doc servers (the failing service)
}

// buildFigure14 wires the deployment:
//
//	DC0 (data center A): host0 gateway, hosts 1-2 proxies, hosts 3-4 index
//	partitions 0-1, hosts 5-7 doc partitions 0-2.
//	DC1 (data center B): hosts 9-10 proxies, hosts 11-12 index partitions,
//	hosts 13-15 doc partitions 0-2.
func buildFigure14(o Figure14Options) *figure14Cluster {
	top := topology.MultiDC(2, 2, 4) // 8 hosts per DC
	eng := sim.NewEngine(o.Seed)
	net := netsim.New(eng, top)
	vip := proxy.NewVIPTable()
	f := &figure14Cluster{eng: eng}
	var runtimes []*service.Runtime

	mcfg := core.DefaultConfig()
	mcfg.MaxTTL = top.Diameter()
	for h := 0; h < top.NumHosts(); h++ {
		hid := topology.HostID(h)
		ep := net.Endpoint(hid)
		node := core.NewNode(mcfg, ep)
		scfg := service.DefaultConfig()
		scfg.RequestTimeout = 500 * time.Millisecond
		dc := top.HostDC(hid)
		scfg.ProxyAddr = func() (topology.HostID, bool) { return vip.Get(dc) }
		rt := service.NewRuntime(scfg, eng, ep, node)
		f.nodes = append(f.nodes, node)
		runtimes = append(runtimes, rt)
	}
	newProxy := func(h int, dc int, remotes []int) {
		pcfg := proxy.DefaultConfig(dc, remotes)
		pcfg.ProxyTTL = top.Diameter()
		p := proxy.New(pcfg, eng, net.Endpoint(topology.HostID(h)), runtimes[h], vip)
		f.proxies = append(f.proxies, p)
	}
	newProxy(1, 0, []int{1})
	newProxy(2, 0, []int{1})
	newProxy(9, 1, []int{0})
	newProxy(10, 1, []int{0})

	registerSearch := func(base int) {
		runtimes[base+3].Register(service.IndexService, "0", o.IndexTime, service.IndexHandler(3))
		runtimes[base+4].Register(service.IndexService, "1", o.IndexTime, service.IndexHandler(3))
		for i := 0; i < 3; i++ {
			runtimes[base+5+i].Register(service.DocService, fmt.Sprintf("%d", i), o.DocTime, service.DocHandler())
		}
	}
	registerSearch(0) // DC A: index at 3-4, docs at 5-7
	registerSearch(8) // DC B: index at 11-12, docs at 13-15
	f.docA = f.nodes[5:8]
	// A retry budget spanning the failure-detection window: requests that
	// arrive while the dead replicas are still listed keep retrying until
	// the membership service removes them and the proxy path takes over,
	// so they complete late instead of failing (the paper's throughput
	// only dips during detection).
	f.gateway = service.NewGateway(runtimes[0], 2, 14)
	return f
}

// Figure14 runs the experiment and returns the paper's two panels as one
// figure: mean response time (ms) and completed throughput (queries/s) per
// one-second bucket.
func Figure14(o Figure14Options) *metrics.Figure {
	f := buildFigure14(o)
	for _, n := range f.nodes {
		n.Start(f.eng)
	}
	for _, p := range f.proxies {
		p.Start()
	}
	// Let membership and proxy summaries converge before time zero.
	warm := 30 * time.Second
	f.eng.Run(warm)

	seconds := int(o.Duration / time.Second)
	sumMS := make([]float64, seconds)
	count := make([]int, seconds)
	errs := make([]int, seconds)

	t0 := f.eng.Now()
	issue := func(i int) {
		q := fmt.Sprintf("query-%05d", i)
		f.gateway.Query(q, func(res service.QueryResult) {
			// Bucket by completion time: throughput is completed
			// queries per second, as the paper plots it.
			bucket := int((f.eng.Now() - t0) / time.Second)
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
	if o.Poisson {
		poissonArrivals(f.eng, float64(time.Second)/float64(o.QueryInterval), o.Duration, issue)
	} else {
		deterministicArrivals(f.eng, o.QueryInterval, o.Duration, issue)
	}
	f.eng.ScheduleAt(t0+o.FailAt, func() {
		for _, n := range f.docA {
			n.Stop()
		}
	})
	f.eng.ScheduleAt(t0+o.RecoverAt, func() {
		for _, n := range f.docA {
			n.Start(f.eng)
		}
	})
	f.eng.Run(t0 + o.Duration + 5*time.Second)

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

// arrivals is a request-arrival process on the engine: it fires the
// callback once per generated request, with the request's index, until stop
// or the end time passes. The gaps come from the engine's seeded RNG, so an
// arrival stream is as deterministic as everything else in a run.
type arrivals struct {
	eng     *sim.Engine
	next    func() time.Duration // draw the next interarrival gap
	fire    func(i int)
	until   time.Duration
	stopped bool
	count   int // requests generated so far
}

func (a *arrivals) stop() { a.stopped = true }

func (a *arrivals) schedule() {
	if a.stopped {
		return
	}
	a.eng.Schedule(a.next(), func() {
		if a.stopped || a.eng.Now() > a.until {
			return
		}
		i := a.count
		a.count++
		a.fire(i)
		a.schedule()
	})
}

func startArrivals(eng *sim.Engine, duration time.Duration, next func() time.Duration, fire func(int)) *arrivals {
	a := &arrivals{eng: eng, next: next, fire: fire, until: eng.Now() + duration}
	a.schedule()
	return a
}

// deterministicArrivals fires every interval exactly.
func deterministicArrivals(eng *sim.Engine, interval, duration time.Duration, fire func(i int)) *arrivals {
	if interval <= 0 {
		panic("harness: arrival interval must be positive")
	}
	return startArrivals(eng, duration, func() time.Duration { return interval }, fire)
}

// poissonArrivals fires with exponentially distributed interarrival times
// at the given mean rate (requests per second).
func poissonArrivals(eng *sim.Engine, ratePerSec float64, duration time.Duration, fire func(i int)) *arrivals {
	if ratePerSec <= 0 {
		panic("harness: arrival rate must be positive")
	}
	return startArrivals(eng, duration, func() time.Duration {
		u := eng.Rand().Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := -math.Log(u) / ratePerSec
		return time.Duration(gap * float64(time.Second))
	}, fire)
}
