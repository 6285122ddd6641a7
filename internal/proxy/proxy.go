package proxy

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// VIPTable models the per-data-center external virtual IP: remote peers
// resolve a data center's proxy address through it, and a newly promoted
// leader takes the address over. In a real deployment this is gratuitous
// ARP / IP takeover; here it is the single source of truth the simulation
// shares.
type VIPTable struct {
	addr map[int]topology.HostID
}

// NewVIPTable returns an empty table.
func NewVIPTable() *VIPTable {
	return &VIPTable{addr: make(map[int]topology.HostID)}
}

// Set assigns data center dc's external address to host h (IP takeover).
func (v *VIPTable) Set(dc int, h topology.HostID) { v.addr[dc] = h }

// Get resolves data center dc's external address.
func (v *VIPTable) Get(dc int) (topology.HostID, bool) {
	h, ok := v.addr[dc]
	return h, ok
}

// Deployment is the §3.2/§5 deployment of a multi-data-center cluster:
// hierarchical membership in every data center, and in each a proxy group
// whose leader holds the data center's external virtual IP.
type Deployment struct {
	VIP *VIPTable
	// Hosts is indexed by host ID; Proxies lists the proxy daemons data
	// center by data center, in host order.
	Hosts   []*Host
	Proxies []*Proxy
}

// Host is one host of a deployment: its membership node, the service
// runtime over it, and on proxy hosts the co-located proxy daemon. Every
// core.Node method is promoted; Start and Stop treat node and proxy as one
// failure unit, so killing a proxy host takes the proxy down with it and a
// restart revives both.
type Host struct {
	*core.Node
	RT    *service.Runtime
	Proxy *Proxy // nil on plain hosts
}

// Start starts the node, then the proxy.
func (h *Host) Start(eng *sim.Engine) {
	h.Node.Start(eng)
	if h.Proxy != nil {
		h.Proxy.Start()
	}
}

// Stop stops the proxy first: the node's Stop takes the endpoint down, and
// the proxy must release the relay handler and channel while it still can,
// so it never keeps claiming the virtual IP for a dead host.
func (h *Host) Stop() {
	if h.Proxy != nil {
		h.Proxy.Stop()
	}
	h.Node.Stop()
}

// Deploy lays the deployment over nodes, one per host of net's topology.
// Every host gets a service runtime (scfg, with ProxyAddr resolving the
// host's own data center through the shared VIP table), and each data
// center runs perDC proxies on its hosts 1..perDC: host 0, the DC's lowest
// ID and so its hierarchical root leader, stays a plain member, so a proxy
// kill never takes the tree's root with it.
func Deploy(eng *sim.Engine, net *netsim.Network, nodes []*core.Node, perDC int, scfg service.Config) *Deployment {
	top := net.Topology()
	if perDC < 1 {
		panic(fmt.Sprintf("proxy: Deploy needs perDC >= 1 proxies per data center, got %d", perDC))
	}
	for dc := 0; dc < top.NumDataCenters(); dc++ {
		if n := len(top.HostsInDC(dc)); n < perDC+1 {
			panic(fmt.Sprintf("proxy: data center %d has %d hosts, fewer than perDC+1 = %d (the root leader plus %d proxies)", dc, n, perDC+1, perDC))
		}
	}
	d := &Deployment{VIP: NewVIPTable(), Hosts: make([]*Host, len(nodes))}
	for h, node := range nodes {
		hid := topology.HostID(h)
		dc := top.HostDC(hid)
		scfg.ProxyAddr = func() (topology.HostID, bool) { return d.VIP.Get(dc) }
		d.Hosts[h] = &Host{Node: node, RT: service.NewRuntime(scfg, eng, net.Endpoint(hid), node)}
	}
	for dc := 0; dc < top.NumDataCenters(); dc++ {
		for _, h := range top.HostsInDC(dc)[1 : perDC+1] {
			p := newProxy(top, eng, net.Endpoint(h), d.Hosts[h].RT, d.VIP)
			d.Hosts[h].Proxy = p
			d.Proxies = append(d.Proxies, p)
		}
	}
	return d
}

// StartAll starts every node, then every proxy.
func (d *Deployment) StartAll(eng *sim.Engine) {
	for _, h := range d.Hosts {
		h.Node.Start(eng)
	}
	for _, p := range d.Proxies {
		p.Start()
	}
}

// The proxy group's timing is fixed, not configured (§6.2: 1 Hz, MAX_LOSS 5).
const (
	// heartbeatInterval paces proxy-group heartbeats and the summary
	// recomputation; a mate silent for deadAfter is dead.
	heartbeatInterval = time.Second
	deadAfter         = 5 * heartbeatInterval
	// A full summary goes to the remote data centers every summaryEvery
	// heartbeats (incremental updates go out immediately when the summary
	// changes).
	summaryEvery = 5
	// SummaryStale expires a remote data center's summary when no heartbeat
	// arrives (e.g. WAN partition or remote cluster death).
	SummaryStale = 15 * time.Second
	// SummaryRefresh bounds how long after a heal a remote summary that
	// expired during the fault stays missing: the staleness horizon plus one
	// full-summary period.
	SummaryRefresh = SummaryStale + summaryEvery*heartbeatInterval
	// maxEntriesPerChunk splits large summaries into multiple packets ("if
	// the size of the membership summary is too big, the summary is broken
	// into multiple heartbeat packets").
	maxEntriesPerChunk = 64
	// proxyChannel is the reserved multicast channel of every data center's
	// proxy group.
	proxyChannel netsim.ChannelID = 1000
)

// remoteDC is the tracked state of one remote data center.
type remoteDC struct {
	entries   map[string]wire.SummaryEntry
	seq       uint64
	lastHeard time.Duration
	// pending chunk assembly for the in-flight summary sequence: which of
	// its chunk indices have arrived, and how many of them.
	chunkSeq     uint64
	chunkHave    []bool
	chunkGot     int
	chunkEntries map[string]wire.SummaryEntry
}

// mate tracks a proxy-group mate, in a membership.Table. The session is live
// from a group heartbeat until the mate has been silent for the death
// horizon; beat, the replay guard over those heartbeats, outlives it (and
// this proxy's Stop/Start), so a dead leader's replayed beats stay dead.
type mate struct {
	beat membership.Mark
	mateSession
}

type mateSession struct {
	lastHeard time.Duration
	live      bool
	leader    bool // its heartbeats carry the leader flag
}

// forwarded tracks one relayed cross-DC request.
type forwarded struct {
	origSrc   topology.HostID
	origReqID uint64
	expiry    *sim.Timer
}

// Proxy is one membership proxy daemon. It is layered over a service
// runtime (whose membership node makes the proxy a full member of the
// local cluster, collecting the local membership view).
type Proxy struct {
	// dc is the data center this proxy serves, remoteDCs the others it
	// exchanges summaries with, and ttl the group multicast's scope: the
	// topology's diameter, which covers the local data center.
	dc        int
	remoteDCs []int
	ttl       int

	eng *sim.Engine
	ep  netsim.Transport
	rt  *service.Runtime
	vip *VIPTable

	running   bool
	isLeader  bool
	startedAt time.Duration
	hbTicker  *sim.Ticker
	tick      int
	mates     membership.Table[mate]

	summary    map[string]wire.SummaryEntry // local DC summary (as last computed)
	summarySeq uint64
	remote     map[int]*remoteDC

	fwd map[uint64]*forwarded

	// chunkSize is maxEntriesPerChunk, a field so a test can chunk a
	// summary of a handful of services.
	chunkSize int

	// enc frames the proxy realm's own packets (group beats, summaries,
	// updates) into buf, the proxy's resident send buffer, which the
	// transport copies from. Relayed requests and replies go out through the
	// runtime. hb is the outgoing group beat, overwritten per send (a fresh
	// one would escape through wire.Message). leaders is the scratch list
	// of the remote leaders a summary goes to (remoteLeaders).
	enc     wire.Encoder
	buf     []byte
	hb      wire.Heartbeat
	leaders []topology.HostID
}

// frame encodes m into the resident send buffer. The packet is good until
// the next frame: long enough for the sends, which copy it.
func (p *Proxy) frame(m wire.Message) []byte {
	p.buf = p.enc.AppendEncode(p.buf[:0], m)
	return p.buf
}

// remoteLeaders lists the addresses of the remote data centers' leaders
// known in the VIP table, in remoteDCs order, in the proxy's scratch.
func (p *Proxy) remoteLeaders() []topology.HostID {
	p.leaders = p.leaders[:0]
	for _, dc := range p.remoteDCs {
		if addr, ok := p.vip.Get(dc); ok {
			p.leaders = append(p.leaders, addr)
		}
	}
	return p.leaders
}

// newProxy creates the proxy on ep's host over that host's service runtime,
// reading its data center, remote data centers and group TTL from top. Call
// Start after the runtime's membership node is started.
func newProxy(top *topology.Topology, eng *sim.Engine, ep netsim.Transport, rt *service.Runtime, vip *VIPTable) *Proxy {
	p := &Proxy{
		dc:        top.HostDC(ep.ID()),
		ttl:       max(top.Diameter(), 1),
		eng:       eng,
		ep:        ep,
		rt:        rt,
		vip:       vip,
		summary:   make(map[string]wire.SummaryEntry),
		remote:    make(map[int]*remoteDC),
		fwd:       make(map[uint64]*forwarded),
		chunkSize: maxEntriesPerChunk,
	}
	for dc := 0; dc < top.NumDataCenters(); dc++ {
		if dc != p.dc {
			p.remoteDCs = append(p.remoteDCs, dc)
			p.remote[dc] = &remoteDC{entries: make(map[string]wire.SummaryEntry)}
		}
	}
	return p
}

// ID returns the proxy's node identity.
func (p *Proxy) ID() membership.NodeID { return p.rt.Node().ID() }

// Host returns the network address the proxy daemon lives on.
func (p *Proxy) Host() topology.HostID { return p.ep.ID() }

// DC returns the data center this proxy serves.
func (p *Proxy) DC() int { return p.dc }

// Running reports whether the proxy daemon is started.
func (p *Proxy) Running() bool { return p.running }

// RemoteDCs returns the data centers this proxy exchanges summaries with.
func (p *Proxy) RemoteDCs() []int {
	out := make([]int, len(p.remoteDCs))
	copy(out, p.remoteDCs)
	return out
}

// RemoteAge returns how long ago a summary (full or incremental) was last
// heard from data center dc. ok is false when nothing has been heard, or
// when the remote state has expired past SummaryStale and been dropped.
func (p *Proxy) RemoteAge(dc int) (age time.Duration, ok bool) {
	r, have := p.remote[dc]
	if !have || r.lastHeard == 0 {
		return 0, false
	}
	return p.eng.Now() - r.lastHeard, true
}

// RemoteServiceNodes returns the believed per-service provider counts for
// remote data center dc — the auditable core of the membership summary.
func (p *Proxy) RemoteServiceNodes(dc int) map[string]int {
	r, have := p.remote[dc]
	if !have {
		return nil
	}
	out := make(map[string]int, len(r.entries))
	for svc, e := range r.entries {
		out[svc] = int(e.Nodes)
	}
	return out
}

// IsLeader reports whether this proxy currently leads the local group and
// holds the virtual IP.
func (p *Proxy) IsLeader() bool { return p.isLeader }

// RemoteSummary returns the believed availability of a service in remote
// data center dc.
func (p *Proxy) RemoteSummary(dc int, svc string) (wire.SummaryEntry, bool) {
	r, ok := p.remote[dc]
	if !ok {
		return wire.SummaryEntry{}, false
	}
	e, ok := r.entries[svc]
	return e, ok
}

// Start joins the proxy group.
func (p *Proxy) Start() {
	if p.running {
		return
	}
	p.running = true
	p.startedAt = p.eng.Now()
	p.rt.SetRelayHandler(p.handle)
	p.ep.Join(proxyChannel)
	jitter := time.Duration(p.eng.Rand().Int63n(int64(heartbeatInterval / 4)))
	p.hbTicker = sim.NewTicker(p.eng, jitter, heartbeatInterval, p.beat)
}

// Stop kills the proxy daemon (the underlying membership node keeps
// running unless stopped separately).
func (p *Proxy) Stop() {
	if !p.running {
		return
	}
	p.running = false
	p.hbTicker.Stop()
	p.ep.Leave(proxyChannel)
	p.rt.SetRelayHandler(nil)
	if p.isLeader {
		p.isLeader = false
	}
}

// beat is the proxy's periodic duty cycle: group heartbeat, liveness
// tracking, election, summary maintenance.
func (p *Proxy) beat() {
	if !p.running {
		return
	}
	now := p.eng.Now()

	// Expire silent proxy mates, then elect: lowest live proxy ID leads. A
	// freshly (re)started proxy must listen for a full death-detection
	// horizon before it may claim: it has heard nobody yet, and claiming on
	// the first beat would usurp an incumbent leader it simply has not
	// heard yet.
	self := p.ID()
	lowest, leaderVisible, lowerLeader := true, false, false
	p.mates.Each(func(id membership.NodeID, m *mate) {
		if m.live && now-m.lastHeard > deadAfter {
			m.mateSession = mateSession{}
		}
		if !m.live {
			return
		}
		lowest = lowest && self < id
		leaderVisible = leaderVisible || m.leader
		lowerLeader = lowerLeader || (m.leader && id < self)
	})
	if p.isLeader {
		if lowerLeader {
			p.isLeader = false // a lower-ID leader is visible; abdicate
		}
	} else if !leaderVisible && lowest && now-p.startedAt >= deadAfter {
		p.isLeader = true
	}
	// The leader re-asserts the VIP every beat (gratuitous ARP in a real
	// deployment): if a transient co-leader grabbed it and then abdicated,
	// the address would otherwise stay stuck on a non-leader.
	if p.isLeader {
		if h, ok := p.vip.Get(p.dc); !ok || h != p.ep.ID() {
			p.vip.Set(p.dc, p.ep.ID())
		}
	}

	// Group heartbeat on the reserved channel (Level 255 marks the proxy
	// realm so cluster membership ignores it by channel anyway).
	p.hb = wire.Heartbeat{
		Info:   membership.MemberInfo{Node: p.ID()},
		Level:  255,
		Leader: p.isLeader,
		Backup: membership.NoNode,
		Seq:    uint64(p.tick),
	}
	p.ep.Multicast(proxyChannel, p.ttl, p.frame(&p.hb))
	p.tick++

	if p.isLeader {
		p.leaderDuties(now)
	}

	// Expire remote data centers that went silent.
	for _, r := range p.remote {
		if r.lastHeard > 0 && now-r.lastHeard > SummaryStale {
			r.entries = make(map[string]wire.SummaryEntry)
			r.lastHeard = 0
		}
	}
}

// leaderDuties recomputes the local summary, pushes incremental updates on
// change, and sends periodic full summaries.
func (p *Proxy) leaderDuties(now time.Duration) {
	fresh := p.computeSummary()
	upserts, removes := diffSummaries(p.summary, fresh)
	p.summary = fresh
	if len(upserts) > 0 || len(removes) > 0 {
		p.summarySeq++
		msg := &wire.ProxyUpdate{DC: uint16(p.dc), Seq: p.summarySeq, Upserts: upserts, Removes: removes}
		p.ep.UnicastAll(p.remoteLeaders(), p.frame(msg))
	}
	if p.tick%summaryEvery == 0 {
		p.sendFullSummary()
	}
}

// sendFullSummary transmits the entire local summary, chunked, to every
// remote data center.
func (p *Proxy) sendFullSummary() {
	entries := make([]wire.SummaryEntry, 0, len(p.summary))
	keys := make([]string, 0, len(p.summary))
	for k := range p.summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		entries = append(entries, p.summary[k])
	}
	p.summarySeq++
	leaders := p.remoteLeaders()
	chunkSize := p.chunkSize
	nChunks := (len(entries) + chunkSize - 1) / chunkSize
	if nChunks == 0 {
		nChunks = 1
	}
	for c := 0; c < nChunks; c++ {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > len(entries) {
			hi = len(entries)
		}
		msg := &wire.ProxySummary{
			DC:      uint16(p.dc),
			Seq:     p.summarySeq,
			Chunk:   uint16(c),
			NChunks: uint16(nChunks),
			Entries: entries[lo:hi],
		}
		p.ep.UnicastAll(leaders, p.frame(msg))
	}
}

// computeSummary aggregates the local cluster directory into per-service
// availability.
func (p *Proxy) computeSummary() map[string]wire.SummaryEntry {
	out := make(map[string]wire.SummaryEntry)
	dir := p.rt.Node().Directory()
	dir.Range(func(_ membership.NodeID, e *membership.Entry) {
		services, _ := dir.Content(e)
		for _, svc := range services {
			s := out[svc.Name]
			s.Service = svc.Name
			s.Nodes++
			s.Partitions = unionParts(s.Partitions, svc.Partitions)
			out[svc.Name] = s
		}
	})
	return out
}

func unionParts(a, b []int32) []int32 {
	seen := make(map[int32]bool, len(a)+len(b))
	for _, p := range a {
		seen[p] = true
	}
	for _, p := range b {
		seen[p] = true
	}
	out := make([]int32, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diffSummaries computes the incremental update from old to new.
func diffSummaries(old, fresh map[string]wire.SummaryEntry) (upserts []wire.SummaryEntry, removes []string) {
	keys := make([]string, 0, len(fresh))
	for k := range fresh {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nw := fresh[k]
		ol, ok := old[k]
		if !ok || !summaryEqual(ol, nw) {
			upserts = append(upserts, nw)
		}
	}
	oldKeys := make([]string, 0, len(old))
	for k := range old {
		oldKeys = append(oldKeys, k)
	}
	sort.Strings(oldKeys)
	for _, k := range oldKeys {
		if _, ok := fresh[k]; !ok {
			removes = append(removes, k)
		}
	}
	return upserts, removes
}

func summaryEqual(a, b wire.SummaryEntry) bool {
	if a.Service != b.Service || a.Nodes != b.Nodes || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for i := range a.Partitions {
		if a.Partitions[i] != b.Partitions[i] {
			return false
		}
	}
	return true
}
