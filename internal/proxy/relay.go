package proxy

import (
	"slices"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/wire"
)

// handle intercepts proxy-realm packets before the service runtime's
// default processing; returning true consumes the packet.
func (p *Proxy) handle(pkt netsim.Packet, msg wire.Message) bool {
	if !p.running {
		return false
	}
	switch m := msg.(type) {
	case *wire.Heartbeat:
		if pkt.Multicast() && pkt.Channel == proxyChannel {
			p.onGroupHeartbeat(m)
			return true
		}
		return false
	case *wire.ProxySummary:
		p.onSummary(pkt, m)
		return true
	case *wire.ProxyUpdate:
		p.onUpdate(pkt, m)
		return true
	case *wire.ServiceRequest:
		if m.Hops >= 1 {
			p.forward(pkt.Src, m)
			return true
		}
		return false
	case *wire.ServiceReply:
		if f, ok := p.fwd[m.ReqID]; ok {
			delete(p.fwd, m.ReqID)
			f.expiry.Stop()
			p.rt.SendReply(f.origSrc, f.origReqID, m.OK, m.Payload)
			return true
		}
		return false
	}
	return false
}

// onGroupHeartbeat tracks proxy-group mates and resolves leader conflicts.
func (p *Proxy) onGroupHeartbeat(hb *wire.Heartbeat) {
	from := hb.Info.Node
	if from == p.ID() {
		return
	}
	m := p.mates.Ensure(from)
	// Beats carry the sender's tick, which no restart resets: a replayed or
	// stale-delivered one must not keep a stopped leader visible and hold
	// up the VIP takeover.
	if !m.beat.Advance(hb.Info.Incarnation, hb.Seq) {
		p.ep.NoteReject()
		return
	}
	m.mateSession = mateSession{lastHeard: p.eng.Now(), live: true, leader: hb.Leader}
	if hb.Leader && p.isLeader && from < p.ID() {
		p.isLeader = false
	}
}

// onSummary assembles a (possibly chunked) full summary from a remote data
// center and, at the leader, relays it to the local proxy group.
func (p *Proxy) onSummary(pkt netsim.Packet, m *wire.ProxySummary) {
	if pkt.Src == topology.HostID(p.ID()) {
		return // our own group relay echoed back by the multicast fabric
	}
	r, ok := p.remote[int(m.DC)]
	if !ok {
		// Summaries for DCs we were not configured with are unusable; count
		// the discard so corrupted/forged DC IDs stay observable.
		p.ep.NoteReject()
		return
	}
	if m.Chunk >= m.NChunks {
		// No chunk index fits this count (including a count of zero): the
		// packet cannot be part of any summary.
		p.ep.NoteReject()
		return
	}
	now := p.eng.Now()
	r.lastHeard = now
	if m.Seq < r.chunkSeq || m.Seq <= r.seq {
		// Stale or replayed sequence: the cross-DC stream is monotone, so an
		// old summary can never overwrite a newer view.
		p.ep.NoteReject()
		return
	}
	if m.Seq != r.chunkSeq {
		r.chunkSeq = m.Seq
		r.chunkHave = slices.Grow(r.chunkHave[:0], int(m.NChunks))[:m.NChunks]
		clear(r.chunkHave)
		r.chunkGot = 0
		r.chunkEntries = make(map[string]wire.SummaryEntry)
	}
	if int(m.NChunks) != len(r.chunkHave) || r.chunkHave[m.Chunk] {
		// A duplicated or replayed chunk of the summary in flight, or one
		// that disagrees with its sequence on the chunk count: counting it
		// would complete the summary with a chunk missing.
		p.ep.NoteReject()
		return
	}
	r.chunkHave[m.Chunk] = true
	for _, e := range m.Entries {
		r.chunkEntries[e.Service] = e
	}
	r.chunkGot++
	if r.chunkGot == len(r.chunkHave) {
		r.entries = r.chunkEntries
		r.seq = m.Seq
		r.chunkEntries = make(map[string]wire.SummaryEntry)
	}
	// A unicast arrival is fresh from the remote leader: relay it to the
	// local proxy group so backups stay warm ("it relays the packet to the
	// local proxy group through the group's multicast channel").
	if !pkt.Multicast() && p.isLeader {
		p.ep.Multicast(proxyChannel, p.ttl, pkt.Payload)
	}
}

// onUpdate applies an incremental cross-DC change.
func (p *Proxy) onUpdate(pkt netsim.Packet, m *wire.ProxyUpdate) {
	if pkt.Src == topology.HostID(p.ID()) {
		return // our own group relay echoed back by the multicast fabric
	}
	r, ok := p.remote[int(m.DC)]
	if !ok {
		p.ep.NoteReject()
		return
	}
	now := p.eng.Now()
	r.lastHeard = now
	if m.Seq <= r.seq {
		// Stale or replayed incremental update against a monotone stream.
		p.ep.NoteReject()
		return
	}
	r.seq = m.Seq
	for _, e := range m.Upserts {
		r.entries[e.Service] = e
	}
	for _, svc := range m.Removes {
		delete(r.entries, svc)
	}
	if !pkt.Multicast() && p.isLeader {
		p.ep.Multicast(proxyChannel, p.ttl, pkt.Payload)
	}
}

// forward implements the Figure 6 request path.
func (p *Proxy) forward(src topology.HostID, req *wire.ServiceRequest) {
	switch req.Hops {
	case 1:
		// Step 2: a local node could not find the service; look it up in
		// the remote summaries and forward to a data center that has it.
		dc, ok := p.pickRemoteDC(req.Service, req.Partition)
		if !ok {
			p.rt.SendReply(src, req.ReqID, false, nil)
			return
		}
		addr, ok := p.vip.Get(dc)
		if !ok {
			p.rt.SendReply(src, req.ReqID, false, nil)
			return
		}
		fwdID := p.rt.AllocReqID()
		f := &forwarded{origSrc: src, origReqID: req.ReqID}
		f.expiry = p.eng.Schedule(10*time.Second, func() { delete(p.fwd, fwdID) })
		p.fwd[fwdID] = f
		p.rt.SendRequest(addr, fwdID, req.Service, req.Partition, 2, req.Payload)
	default:
		// Step 3: we are the remote proxy; dispatch to a local backend via
		// the normal invocation path (random polling load balancing) and
		// relay the result back (steps 4-5).
		reqID := req.ReqID
		p.rt.Invoke(req.Service, req.Partition, req.Payload, service.Func(func(out []byte, err error) {
			p.rt.SendReply(src, reqID, err == nil, out)
		}), 0)
	}
}

// pickRemoteDC chooses a data center whose summary advertises the service
// (and partition when specified), lowest DC index first for determinism.
func (p *Proxy) pickRemoteDC(svc string, partition int32) (int, bool) {
	dcs := make([]int, 0, len(p.remote))
	for dc := range p.remote {
		dcs = append(dcs, dc)
	}
	sort.Ints(dcs)
	for _, dc := range dcs {
		e, ok := p.RemoteSummary(dc, svc)
		if !ok {
			continue
		}
		if partition < 0 {
			return dc, true
		}
		for _, q := range e.Partitions {
			if q == partition {
				return dc, true
			}
		}
	}
	return 0, false
}
