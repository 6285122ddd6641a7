package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// The differential test of multicast runs. A seeded script of sends,
// subscription and liveness changes and network degradations is executed
// twice on identically seeded worlds — as built, and with Network.runCap = 1,
// where every copy is an engine event of its own as it was before runs — and
// everything a simulation can observe must agree: the handler call log, every
// endpoint's Stats, every engine's Steps and the next draw of every engine's
// RNG. The worlds are a serial network and a partitioned one (one LP per
// level-0 group, windows driven the way parsim.Coordinator drives them, one
// goroutine per exchange bucket).

const (
	scriptGroups   = 5
	scriptPerGroup = 4
	scriptHosts    = scriptGroups * scriptPerGroup
	scriptGrid     = topology.DefaultLANLatency // sends land on arrival instants
	scriptPhases   = 24
	scriptPhaseLen = 40 // grid steps per phase
	scriptEnd      = 4 * time.Second
)

// scriptProfiled are the hosts whose access link ever carries a profile. A
// link stays marked once it has had one, and a marked path never joins a run,
// so the set is kept small: the other hosts' copies keep forming runs.
var scriptProfiled = []topology.HostID{2, 9, 17}

// arrival is one handler call: at host dst, of a packet from src addressed
// to to (NoHost for a multicast).
type arrival struct {
	at           time.Duration
	dst, src, to topology.HostID
	ch           ChannelID
	payload      string
}

// op is one scripted action. Host ops run as events on the host's engine;
// global ops change state every LP reads, so a partitioned world applies them
// between windows (where chaos actions run) and a serial one as events.
type op struct {
	at   time.Duration
	host topology.HostID
	do   func(w *world, ep *Endpoint)
}

type script struct {
	hostOps, globalOps []op
}

// scriptPayload builds what the handlers act on: behaviour, hops left, then
// an id and filler. Corrupted and truncated copies are parsed like any other, so byte
// faults change behaviour deterministically too.
func scriptPayload(r *rand.Rand, id int) []byte {
	behaviour := byte(0)
	if r.Intn(3) == 0 {
		behaviour = byte(1 + r.Intn(7))
	}
	return []byte{behaviour, byte(1 + r.Intn(3)), byte(id), byte(id >> 8), 0xA5, 0x5A, 0xC3, 0x3C}
}

func genScript(seed int64) script {
	r := rand.New(rand.NewSource(seed))
	var s script
	id := 0
	for phase := 0; phase < scriptPhases; phase++ {
		start := time.Duration(phase*scriptPhaseLen) * scriptGrid
		// Every phase starts by resetting the degradations; four in ten stay
		// clean so that long runs form, the rest pick a few.
		loss, jitter, dup := 0.0, 0.0, 0.0
		var profiled, gray []topology.HostID
		var profile LinkProfile
		failed := -1
		if r.Intn(10) >= 4 {
			if r.Intn(3) == 0 {
				loss = 0.2
			}
			if r.Intn(4) == 0 {
				jitter = 0.3
			}
			if r.Intn(4) == 0 {
				dup = 0.3
			}
			for i := r.Intn(3); i > 0; i-- {
				profiled = append(profiled, scriptProfiled[r.Intn(len(scriptProfiled))])
			}
			pick := func(p float64) float64 {
				if r.Intn(3) == 0 {
					return p
				}
				return 0
			}
			profile = LinkProfile{
				Loss: pick(0.3), Jitter: pick(0.2), Dup: pick(0.3),
				Corrupt: pick(0.4), Truncate: pick(0.4), Replay: pick(0.5), Stale: pick(0.5),
			}
			for i := r.Intn(3); i > 0; i-- {
				gray = append(gray, topology.HostID(r.Intn(scriptHosts)))
			}
			if r.Intn(4) == 0 {
				failed = r.Intn(scriptGroups)
			}
		}
		s.globalOps = append(s.globalOps, op{at: start, do: func(w *world, _ *Endpoint) {
			w.net.SetLossProbability(loss)
			w.net.SetLatencyJitter(jitter)
			w.net.SetDuplicateProbability(dup)
			for _, h := range scriptProfiled {
				w.net.SetLinkProfile(w.hostDev(h), w.switchDev(int(h)/scriptPerGroup), LinkProfile{})
			}
			for h := topology.HostID(0); h < scriptHosts; h++ {
				w.net.Endpoint(h).SetGrayLag(0)
			}
			for _, h := range profiled {
				w.net.SetLinkProfile(w.hostDev(h), w.switchDev(int(h)/scriptPerGroup), profile)
			}
			for _, h := range gray {
				w.net.Endpoint(h).SetGrayLag(3 * scriptGrid)
			}
			for g := 0; g < scriptGroups; g++ {
				if g == failed {
					w.net.top.FailDevice(w.switchDev(g))
				} else {
					w.net.top.RepairDevice(w.switchDev(g))
				}
			}
		}})
		for n := 30 + r.Intn(30); n > 0; n-- {
			o := op{
				at:   start + time.Duration(r.Intn(scriptPhaseLen))*scriptGrid,
				host: topology.HostID(r.Intn(scriptHosts)),
			}
			ch := ChannelID(1 + r.Intn(2))
			switch k := r.Intn(23); {
			case k < 9:
				ttl, pl := 1+r.Intn(2), scriptPayload(r, id)
				id++
				o.do = func(w *world, ep *Endpoint) { ep.Multicast(ch, ttl, w.framed(pl)) }
			case k < 12:
				dst, pl := topology.HostID(r.Intn(scriptHosts)), scriptPayload(r, id)
				id++
				o.do = func(w *world, ep *Endpoint) { ep.Unicast(dst, w.framed(pl)) }
			case k < 15:
				dsts, pl := scriptFanout(r, o.host), scriptPayload(r, id)
				id++
				o.do = func(w *world, ep *Endpoint) { w.unicastAll(ep, dsts, w.framed(pl)) }
			case k < 17:
				o.do = func(_ *world, ep *Endpoint) { ep.Leave(ch) }
			case k < 20:
				o.do = func(_ *world, ep *Endpoint) { ep.Join(ch) }
			case k < 21:
				o.do = func(_ *world, ep *Endpoint) { ep.SetUp(false) }
			default:
				o.do = func(_ *world, ep *Endpoint) { ep.SetUp(true) }
			}
			s.hostOps = append(s.hostOps, o)
		}
	}
	return s
}

// scriptFanout picks the hosts of a fan-out from src: either a whole group
// other than src's, so that partitioned every copy crosses LPs, or a group in
// order, whose copies form runs, with src itself, repeats, random hosts and
// hosts that do not exist put in among them.
func scriptFanout(r *rand.Rand, src topology.HostID) []topology.HostID {
	g := r.Intn(scriptGroups)
	cross := r.Intn(3) == 0
	if cross {
		g = (int(src)/scriptPerGroup + 1 + r.Intn(scriptGroups-1)) % scriptGroups
	}
	var dsts []topology.HostID
	for h := 0; h < scriptPerGroup; h++ {
		dsts = append(dsts, topology.HostID(g*scriptPerGroup+h))
	}
	for i := r.Intn(4); i > 0 && !cross; i-- {
		extra := []topology.HostID{topology.HostID(r.Intn(scriptHosts)), src, dsts[0], -1, scriptHosts}[r.Intn(5)]
		dsts = slices.Insert(dsts, r.Intn(len(dsts)+1), extra)
	}
	return dsts
}

// scriptWorld is a topology the scripts run on, with the hosts in
// scriptGroups level-0 groups of scriptPerGroup, and the name pattern of
// group g's switch.
type scriptWorld struct {
	name    string
	build   func() *topology.Topology
	switch_ string
}

var (
	// oneDC is the groups under one router: one data center.
	oneDC = scriptWorld{"one data center", func() *topology.Topology { return topology.Clustered(scriptGroups, scriptPerGroup) }, "sw%d"}
	// fiveDCs puts each group in a data center of its own, the data centers
	// joined by WAN links: every unicast between groups counts WAN bytes.
	fiveDCs = scriptWorld{"five data centers", func() *topology.Topology { return topology.MultiDC(scriptGroups, 1, scriptPerGroup) }, "dc%d-sw0"}
)

// world is one network under test. buckets == 0 is the serial network on
// engs[0]; otherwise the network is partitioned with one engine per LP and
// that many exchange buckets.
type world struct {
	net     *Network
	engs    []*sim.Engine
	look    time.Duration
	buckets int
	switch_ string
	logs    [][]arrival // per LP: only the LP's worker appends
	// wire, when set, carries the script in wire packets (decode_test.go);
	// nil sends its bytes as they are.
	wire *wireScript
	// loop, when set, sends each fan-out as one Unicast per host instead of
	// one UnicastAll: the reference TestUnicastAllMatchesLoop compares with.
	loop bool
}

// unicastAll sends a scripted fan-out.
func (w *world) unicastAll(ep *Endpoint, dsts []topology.HostID, payload []byte) {
	if !w.loop {
		ep.UnicastAll(dsts, payload)
		return
	}
	for _, dst := range dsts {
		ep.Unicast(dst, payload)
	}
}

// framed is what a script payload is sent as, and read what a delivery
// carries of it: the identity unless the world frames its script.
func (w *world) framed(p []byte) []byte {
	if w.wire == nil {
		return p
	}
	return w.wire.frame(p)
}

func (w *world) read(ep *Endpoint, pkt Packet) []byte {
	if w.wire == nil {
		return pkt.Payload
	}
	return w.wire.read(ep, pkt)
}

func newWorld(seed int64, buckets, runCap int) *world {
	return newWorldOn(oneDC, seed, buckets, runCap)
}

func newWorldOn(sw scriptWorld, seed int64, buckets, runCap int) *world {
	top := sw.build()
	w := &world{buckets: buckets, switch_: sw.switch_}
	if buckets == 0 {
		w.engs = []*sim.Engine{sim.NewEngine(seed)}
		w.net = New(w.engs[0], top)
	} else {
		part := top.LPPartition()
		for lp := 0; lp < part.NumLPs(); lp++ {
			w.engs = append(w.engs, sim.NewEngine(seed*131+int64(lp)))
		}
		w.net = New(w.engs[0], top)
		w.net.EnablePartition(part.LPOf, w.engs, buckets)
		w.look = part.Lookahead
	}
	w.net.runCap = runCap
	w.logs = make([][]arrival, len(w.engs))
	for h := topology.HostID(0); h < scriptHosts; h++ {
		ep := w.net.Endpoint(h)
		ep.Join(1)
		ep.Join(2)
		ep.SetHandler(w.handler(ep))
		if h%4 == 3 {
			ep.SetFilter(func(pkt Packet) bool { return len(pkt.Payload) < 3 || pkt.Payload[2]&3 != 0 })
		}
	}
	return w
}

func (w *world) hostDev(h topology.HostID) topology.DeviceID { return w.net.top.HostDevice(h).ID }

func (w *world) switchDev(g int) topology.DeviceID {
	d, ok := w.net.top.FindDevice(fmt.Sprintf(w.switch_, g))
	if !ok {
		panic("no switch for group")
	}
	return d.ID
}

// handler logs the call and then, while the packet has hops left, acts on
// its behaviour byte: re-send from inside the handler or at zero delay, fan
// out to the sender and the host's own group, or change the next host of the
// group — a later receiver of the same run, and never one on another LP.
func (w *world) handler(ep *Endpoint) Handler {
	var later *Endpoint
	if next := ep.id + 1; int(next)%scriptPerGroup != 0 {
		later = w.net.Endpoint(next)
	}
	group := ep.id - ep.id%scriptPerGroup
	return func(pkt Packet) {
		w.logs[ep.lp] = append(w.logs[ep.lp], arrival{ep.eng.Now(), ep.id, pkt.Src, pkt.Dst, pkt.Channel, string(pkt.Payload)})
		p := w.read(ep, pkt)
		if len(p) < 4 || p[1]&3 == 0 {
			return
		}
		fwd := append([]byte(nil), p...)
		fwd[1] = p[1]&3 - 1
		ch := max(pkt.Channel, 1)
		switch p[0] % 8 {
		case 1:
			ep.Multicast(ch, 1, w.framed(fwd))
		case 2:
			ep.Unicast(pkt.Src, w.framed(fwd))
		case 3:
			ep.eng.Schedule(0, func() { ep.Multicast(ch, 1, w.framed(fwd)) })
		case 4:
			if later != nil {
				later.SetUp(false)
			}
		case 5:
			if later != nil {
				later.Leave(ch)
			}
		case 6:
			if later != nil {
				later.SetUp(true)
				later.Join(ch)
			}
		case 7:
			w.unicastAll(ep, []topology.HostID{pkt.Src, group, group + 1, group + 2, group + 3}, w.framed(fwd))
		}
	}
}

// each runs fn once per exchange bucket, concurrently when there are several.
func (w *world) each(fn func(bucket int)) {
	if w.buckets == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for b := 0; b < w.buckets; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			fn(b)
		}(b)
	}
	wg.Wait()
}

func (w *world) run(s script) {
	for _, o := range s.hostOps {
		ep := w.net.Endpoint(o.host)
		ep.eng.ScheduleAt(o.at, func() { o.do(w, ep) })
	}
	if w.buckets == 0 {
		for _, o := range s.globalOps {
			w.engs[0].ScheduleAt(o.at, func() { o.do(w, nil) })
		}
		w.engs[0].Run(scriptEnd)
		return
	}
	w.windows(s.globalOps, 0, scriptEnd)
}

// until runs a world that has run its script on to end.
func (w *world) until(end time.Duration) {
	if w.buckets == 0 {
		w.engs[0].Run(end)
		return
	}
	w.windows(nil, w.engs[0].Now(), end)
}

// windows is the conservative window loop of parsim.Coordinator, reduced to
// what the network needs, from start to end: global ops between windows,
// phase A runs every LP up to the window end, phase B drains the cross-LP
// outboxes and publishes subscription snapshots, idle stretches are skipped.
func (w *world) windows(globals []op, start, end time.Duration) {
	pubs := make([]int, len(w.engs))
	for now := start; now < end; {
		for len(globals) > 0 && globals[0].at <= now {
			globals[0].do(w, nil)
			globals = globals[1:]
		}
		w.net.PublishAllSubs()
		winEnd := min(now+w.look, end)
		if len(globals) > 0 {
			winEnd = min(winEnd, globals[0].at)
		}
		w.each(func(b int) {
			for lp := b; lp < len(w.engs); lp += w.buckets {
				w.engs[lp].RunBefore(winEnd)
			}
		})
		w.each(func(b int) {
			w.net.DrainCross(b, winEnd)
			for lp := b; lp < len(w.engs); lp += w.buckets {
				pubs[lp] = w.net.PublishSubs(lp)
			}
		})
		next := end
		if len(globals) > 0 {
			next = globals[0].at
		}
		published := 0
		for lp, eng := range w.engs {
			published += pubs[lp]
			if at, ok := eng.NextEventAt(); ok {
				next = min(next, at)
			}
		}
		if published > 0 {
			w.net.BumpPubEpoch()
		}
		now = max(winEnd, next)
		for _, eng := range w.engs {
			eng.AdvanceTo(now)
		}
	}
}

// outcome is everything the two variants must agree on.
type outcome struct {
	logs  [][]arrival
	stats []Stats
	steps []uint64
	draws []int64
	wan   uint64
	pool  int // records in the free lists: not compared, shows runs formed
}

func (w *world) outcome() outcome {
	o := outcome{logs: w.logs, wan: w.net.WANBytes()}
	for h := topology.HostID(0); h < scriptHosts; h++ {
		o.stats = append(o.stats, w.net.Endpoint(h).Stats())
	}
	for lp, eng := range w.engs {
		o.steps = append(o.steps, eng.Steps())
		o.draws = append(o.draws, eng.Rand().Int63())
		o.pool += poolLen(w.net, int32(lp))
	}
	return o
}

// poolLen counts the pooled delivery records of one LP (the one pool of a
// serial network, whatever lp says).
func poolLen(n *Network, lp int32) int {
	count := 0
	for d := n.pool(lp).del; d != nil; d = d.next {
		count++
	}
	return count
}

func diffOutcomes(t *testing.T, what string, got, want outcome) {
	t.Helper()
	for lp := range want.logs {
		g, w := got.logs[lp], want.logs[lp]
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: LP %d handler call %d is %+v, want %+v", what, lp, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("%s: LP %d logged %d handler calls, want %d", what, lp, len(g), len(w))
		}
	}
	for h := range want.stats {
		if got.stats[h] != want.stats[h] {
			t.Fatalf("%s: host %d stats %+v, want %+v", what, h, got.stats[h], want.stats[h])
		}
	}
	if !reflect.DeepEqual(got.steps, want.steps) {
		t.Fatalf("%s: engine steps %v, want %v", what, got.steps, want.steps)
	}
	if !reflect.DeepEqual(got.draws, want.draws) {
		t.Fatalf("%s: next RNG draws %v, want %v", what, got.draws, want.draws)
	}
	if got.wan != want.wan {
		t.Fatalf("%s: %d WAN bytes, want %d", what, got.wan, want.wan)
	}
}

// Mutant: fanout.joins drops dst.grayLag == 0.
// Mutant: send's drawless drops n.jitter == 0.
func TestRunsMatchPerCopyEvents(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	calls, degraded, poolRuns, poolCopies := 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		s := genScript(seed)
		var perBuckets []outcome
		for _, buckets := range []int{0, 1, 4} {
			built := newWorld(seed, buckets, 0)
			built.run(s)
			capped := newWorld(seed, buckets, 1)
			capped.run(s)
			got, want := built.outcome(), capped.outcome()
			diffOutcomes(t, fmt.Sprintf("seed %d, %d buckets, runs vs per-copy events", seed, buckets), got, want)
			poolRuns += got.pool
			poolCopies += want.pool
			for _, log := range got.logs {
				calls += len(log)
			}
			for _, st := range got.stats {
				degraded += int(st.FaultsInjected() + st.Dropped)
			}
			if buckets > 0 {
				perBuckets = append(perBuckets, got)
			}
		}
		diffOutcomes(t, fmt.Sprintf("seed %d, 4 buckets vs 1", seed), perBuckets[1], perBuckets[0])
	}
	// The scripts must have exercised what they claim to: plenty of traffic,
	// the degradations, and runs longer than one (fewer records ever needed).
	if calls < 20000*int(seeds)/12 || degraded == 0 {
		t.Fatalf("scripts too quiet: %d handler calls, %d drops and injected faults", calls, degraded)
	}
	if poolRuns >= poolCopies {
		t.Fatalf("pools hold %d records with runs and %d with per-copy events: no run formed", poolRuns, poolCopies)
	}
}

// TestUnicastAllMatchesLoop: UnicastAll is one Unicast per host. The seeded
// scripts, whose fan-outs mix runs, the sender itself, repeats, random,
// unreachable and nonexistent hosts and groups on other LPs, and which fan
// out from inside handlers too, are replayed with every fan-out sent in one
// UnicastAll and as a loop of Unicasts, on one data center and on five joined
// by WAN links, serial and partitioned, with runs as built and capped at one
// copy. The handler logs, each copy's Dst among them, every endpoint's Stats,
// every engine's Steps and next draw, and the WAN bytes must agree.
//
// Mutant: arrive keeps a unicast run's first Dst (TestRunsMatchPerCopyEvents too).
// Mutant: UnicastAll leaves an unreachable host out of PktsSent.
func TestUnicastAllMatchesLoop(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	var wan uint64
	poolAll, poolLoop := 0, 0
	for _, sw := range []scriptWorld{oneDC, fiveDCs} {
		for seed := int64(1); seed <= seeds; seed++ {
			s := genScript(seed)
			for _, buckets := range []int{0, 1, 4} {
				for _, runCap := range []int{0, 1} {
					all := newWorldOn(sw, seed, buckets, runCap)
					all.run(s)
					loop := newWorldOn(sw, seed, buckets, runCap)
					loop.loop = true
					loop.run(s)
					got, want := all.outcome(), loop.outcome()
					diffOutcomes(t, fmt.Sprintf("%s, seed %d, %d buckets, runCap %d, UnicastAll vs a Unicast per host", sw.name, seed, buckets, runCap), got, want)
					wan += got.wan
					if buckets == 0 && runCap == 0 {
						poolAll += got.pool
						poolLoop += want.pool
					}
				}
			}
		}
	}
	if wan == 0 {
		t.Fatal("no fan-out crossed a data center")
	}
	if poolAll >= poolLoop {
		t.Fatalf("pools hold %d records after UnicastAll and %d after the loops: no fan-out formed a run", poolAll, poolLoop)
	}
}

// TestRunSurvivesFanoutRebuild pins the aliasing hazard runs expose: the
// cached fan-out a run was cut from is rebuilt in place by the next send
// after a Join/Leave or a topology fault. Between send and arrival one
// receiver leaves, an outsider joins, a switch fails and the sender sends
// again; the first packet must still reach its send-time receivers minus the
// one the arrival-time subscription check excludes, exactly as per-copy
// events deliver it.
func TestRunSurvivesFanoutRebuild(t *testing.T) {
	for _, runCap := range []int{0, 1} {
		eng, n := newNet(t, topology.Clustered(2, 4)) // hosts 0-3 on sw0, 4-7 on sw1
		n.runCap = runCap
		const ch = ChannelID(7)
		got := map[string][]topology.HostID{}
		for h := topology.HostID(1); h < 8; h++ {
			ep := n.Endpoint(h)
			ep.SetHandler(func(pkt Packet) {
				got[string(pkt.Payload)] = append(got[string(pkt.Payload)], ep.id)
			})
			if h != 4 && h != 7 {
				ep.Join(ch)
			}
		}
		sw1, ok := n.top.FindDevice("sw1")
		if !ok {
			t.Fatal("no sw1")
		}
		src := n.Endpoint(0)
		src.Multicast(ch, 2, []byte("first")) // runs {1,2,3} and {5,6}
		n.Endpoint(1).Leave(ch)
		n.Endpoint(7).Join(ch)
		n.top.FailDevice(sw1.ID)
		src.Multicast(ch, 2, []byte("second")) // rebuilds the fan-out in place: {2,3}
		events := 0
		for eng.Step() {
			events++
		}
		if runCap == 0 && events != 3 {
			t.Fatalf("the two multicasts queued %d events, want their 3 runs", events)
		}
		want := map[string][]topology.HostID{"first": {2, 3, 5, 6}, "second": {2, 3}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runCap %d: deliveries %v, want %v", runCap, got, want)
		}
	}
}

// TestBurstPoolHighWater checks that the pool is sized by runs in flight, not
// copies: after a burst of same-instant all-to-all multicasts has drained it
// holds at most three records per multicast (the groups below the sender, its
// own, the groups above), where per-copy deliveries left 399. The burst's send
// buffers, 64 KiB each and all in flight at once, are let go down to the
// budget, and the rest once they have lain unused through a trim period.
func TestBurstPoolHighWater(t *testing.T) {
	eng, n := newNet(t, topology.Clustered(20, 20))
	recv := 0
	for h := topology.HostID(0); h < 400; h++ {
		ep := n.Endpoint(h)
		ep.Join(3)
		ep.SetHandler(func(pkt Packet) { recv++ })
	}
	const burst = 40
	ttl := n.top.Diameter()
	payload := append([]byte("beat"), make([]byte, 60000)...)
	for i := 0; i < burst; i++ {
		n.Endpoint(topology.HostID(i*10)).Multicast(3, ttl, payload)
	}
	eng.RunAll()
	if big := 64 << 10; burst*big <= bufBudget || n.pool(0).bytes > bufBudget || n.pool(0).bytes < bufBudget-big {
		t.Fatalf("free send buffers hold %d bytes after a %d-byte burst, want at most the budget, %d, and near it", n.pool(0).bytes, burst*big, bufBudget)
	}
	if recv != burst*399 {
		t.Fatalf("%d copies delivered, want %d", recv, burst*399)
	}
	if got := poolLen(n, 0); got > burst*3 {
		t.Fatalf("pool holds %d records after a burst of %d multicasts, want at most %d", got, burst, burst*3)
	}
	for i := 0; i < 2; i++ {
		eng.Run(eng.Now() + bufTrim)
		n.Endpoint(0).Multicast(3, ttl, []byte("beat"))
		eng.RunAll()
	}
	if n.pool(0).bytes != bufMin {
		t.Fatalf("free send buffers hold %d bytes two trim periods after the burst, want the one beat's %d", n.pool(0).bytes, bufMin)
	}
}
