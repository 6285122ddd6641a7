package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// The network is split along an LP partition: every endpoint sends and
// receives on its LP's engine, and the only cross-LP communication is
// timestamped outMsg records parked in per-sender outboxes, drained by the
// parsim coordinator at window boundaries. Within a lookahead window no
// worker goroutine touches another LP's mutable state; everything a sender
// reads about a remote endpoint (gray lag, published subscriptions) is frozen
// between boundaries. A serial network is the partition of one: one LP, no
// outbox ever written, no coordinator. See docs/PARSIM.md for the full
// ownership table and the determinism contract.

// outMsg is one cross-LP delivery, fully drawn at send time on the sender's
// engine (jitter, duplication, gray lag) with receiver-side draws (loss,
// byte faults) deferred to the destination engine at Fire time — the same
// split a copy that stays on its LP makes, so -lps 1 and -lps K consume RNG
// streams identically.
type outMsg struct {
	at   time.Duration // absolute arrival time (pre-clamp)
	dst  *Endpoint
	pkt  Packet
	loss float64
	fl   faults
	gray bool // count GrayDelayed at the receiver on arrival
}

// lpNet is the per-LP state hanging off Network.lps.
type lpNet struct {
	// out[src][b] holds messages sent by LP src to any LP owned by worker
	// b (dstLP % buckets == b). Only src's worker appends during a window;
	// only worker b drains at the boundary. Bucketing by destination worker
	// means each worker drains exactly the messages it will schedule,
	// touching no other worker's engines.
	out     [][][]outMsg
	buckets int

	pools []pools              // per-LP free lists
	fans  []map[fanKey]*fanout // per-LP fan-out caches (Endpoint.fanoutFor)
	wan   []uint64             // per-LP bytes sent across data centers

	// scratch[b] is the buffer the endpoints of worker b's LPs lend through
	// Transport.Scratch: the worker runs its LPs one after another, and a
	// send copies out of the buffer, so one per worker is enough. It grows
	// to the largest snapshot framed on it (≈ 40 KiB at N=1000).
	scratch [][]byte

	// subEpoch[lp] invalidates lp's own fan-outs on local Join/Leave;
	// pubEpoch invalidates everyone's when any LP republishes snapshots.
	// pubEpoch only changes between windows (deterministically: it is
	// driven by dirty-endpoint counts, which the event streams determine).
	// A one-LP network has no coordinator to publish: its dirty list holds
	// each endpoint that ever joined a channel once, and its epoch stays 0.
	subEpoch []uint64
	pubEpoch uint64
	dirty    [][]*Endpoint // per-LP endpoints with unpublished sub changes
}

// EnablePartition lays the network out over len(engs) LPs: host h lives on
// engs[lpOf[h]], and cross-LP sends queue into buckets drained by `buckets`
// workers (worker b owns LPs with lp%buckets == b). New lays a serial
// network through it as one LP on its engine; a partitioned run calls it
// again, before any traffic, and that engine is no longer used for
// scheduling afterwards.
func (n *Network) EnablePartition(lpOf []int, engs []*sim.Engine, buckets int) {
	if len(lpOf) != len(n.eps) {
		panic(fmt.Sprintf("netsim: partition over %d hosts, network has %d", len(lpOf), len(n.eps)))
	}
	if buckets < 1 {
		panic(fmt.Sprintf("netsim: %d exchange buckets", buckets))
	}
	p := len(engs)
	l := &lpNet{
		buckets:  buckets,
		out:      make([][][]outMsg, p),
		pools:    make([]pools, p),
		scratch:  make([][]byte, buckets),
		fans:     make([]map[fanKey]*fanout, p),
		wan:      make([]uint64, p),
		subEpoch: make([]uint64, p),
		dirty:    make([][]*Endpoint, p),
	}
	for i := range l.out {
		l.out[i] = make([][]outMsg, buckets)
		l.fans[i] = make(map[fanKey]*fanout)
		l.pools[i].back, l.pools[i].bucket = make([][]hold, buckets), i%buckets
	}
	for h, ep := range n.eps {
		lp := lpOf[h]
		l.pools[lp].hosts++
		ep.lp = int32(lp)
		ep.eng = engs[lp]
	}
	n.lps = l
}

// DrainCross first settles the holds every LP gave back on the buffers of
// worker `bucket`'s LPs, freeing a buffer whose last hold came back. It then
// schedules every parked message bound for worker `bucket`'s LPs onto its
// destination engine, in (source LP ascending, send order) order — an order
// independent of the worker count, which is what makes engine sequence
// stamps, and therefore simultaneous-timestamp tie-breaks,
// LP-count-invariant. Arrivals that jitter or gray lag pushed below the
// boundary are clamped up to winEnd (deterministically: the clamp depends
// only on the message and the boundary time). Called by worker `bucket`
// between windows.
func (n *Network) DrainCross(bucket int, winEnd time.Duration) {
	l := n.lps
	for lp := range l.pools {
		back := l.pools[lp].back[bucket]
		for _, h := range back {
			h.buf.drop(h.n)
		}
		clear(back)
		l.pools[lp].back[bucket] = back[:0]
	}
	for src := range l.out {
		msgs := l.out[src][bucket]
		if len(msgs) == 0 {
			continue
		}
		// A multicast copy crosses holding its sender's buffer
		// (Endpoint.Multicast), and is wrapped here in a loose record of its
		// receiver's LP. The copies of one packet to one LP arrive here one
		// after another, and share it; it counts them, to give their holds
		// back when it is let go. A unicast's buffer changes hands: from here
		// on only its receiver's LP touches it.
		var loose *sendBuf
		for i := range msgs {
			m := &msgs[i]
			at := m.at
			if at < winEnd {
				at = winEnd
			}
			p := n.pool(m.dst.lp)
			switch {
			case !m.pkt.Multicast():
				m.pkt.buf.pool = p
			case loose == nil || loose.pool != p || loose.origin != m.pkt.buf:
				loose = p.newLoose(m.pkt.buf)
				fallthrough
			default:
				loose.holds++
				m.pkt.buf = loose
			}
			d := n.newDelivery(m.dst, m.pkt, m.loss, m.fl)
			d.gray = m.gray
			m.dst.eng.ScheduleCall(at-m.dst.eng.Now(), d)
		}
		clear(msgs) // drop payload references
		l.out[src][bucket] = msgs[:0]
	}
}

// PublishSubs publishes pending subscription snapshots for one LP and
// reports how many endpoints changed. Called by the LP's worker (or the
// coordinator) between windows.
func (n *Network) PublishSubs(lp int) int {
	l := n.lps
	d := l.dirty[lp]
	for _, ep := range d {
		if ep.pubSubs == nil {
			ep.pubSubs = make(map[ChannelID]bool)
		}
		clear(ep.pubSubs)
		for ch := range ep.subs {
			ep.pubSubs[ch] = true
		}
		ep.subDirty = false
	}
	count := len(d)
	l.dirty[lp] = d[:0]
	return count
}

// PublishAllSubs publishes every LP's pending subscription changes and
// bumps the published epoch if there were any. The coordinator calls it
// single-threaded at run start and after boundary actions.
func (n *Network) PublishAllSubs() {
	l := n.lps
	total := 0
	for lp := range l.dirty {
		total += n.PublishSubs(lp)
	}
	if total > 0 {
		l.pubEpoch++
	}
}

// BumpPubEpoch invalidates every LP's fan-out caches; the coordinator calls
// it at a boundary where PublishSubs reported changes.
func (n *Network) BumpPubEpoch() { n.lps.pubEpoch++ }
