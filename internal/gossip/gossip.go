package gossip

import (
	"math"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config parametrizes a gossip node.
type Config struct {
	// Fanout is how many random members receive our view each round.
	Fanout int
	// ExpectedSize is the cluster size the failure timeout is derived from
	// (FailTimeoutFor).
	ExpectedSize int
	// Seeds are contact addresses used to bootstrap gossip before any
	// members are known (the paper's initial broadcast, which its
	// analysis excludes).
	Seeds []membership.NodeID
	// EntryPad declares an uncarried tail of this many bytes per gossiped
	// member record (wire.Padding), equalizing the per-member accounted size
	// with the other schemes' heartbeats for fair bandwidth comparisons.
	EntryPad int
	// failTimeout, when set, replaces the derived failure timeout: a test
	// hook that shortens (or disables) expiry, not a knob.
	failTimeout time.Duration
}

// The paper's comparison settings (§6.2).
const (
	// gossipInterval is the period between gossip rounds: 1 Hz, matching the
	// multicast frequency of the other schemes.
	gossipInterval = time.Second
	// mistakeProbability bounds the chance of a false failure declaration.
	mistakeProbability = 0.001
	// seedGossipProbability is the per-round chance of additionally
	// gossiping to a uniformly random seed. Without it, push-only gossip
	// whose targets come solely from the current view can partition into
	// isolated cliques at cold start and never merge (van Renesse's
	// protocol likewise occasionally gossips to well-known addresses).
	seedGossipProbability = 0.25
)

// DefaultConfig mirrors the paper's comparison settings.
func DefaultConfig() Config {
	return Config{Fanout: 1, ExpectedSize: 100}
}

// FailTimeoutFor derives the failure timeout of an n-member cluster from the
// mistake probability bound: counters propagate in O(log2 N) rounds with
// fanout 1, and the detection timeout must leave enough slack that the
// probability a live member's counter fails to arrive within it stays below
// mistakeProbability. We use the standard heuristic Tfail = ceil(log2(N) *
// ln(1/p) / ln(N)) rounds, floored at 2·log2(N) rounds, which reproduces the
// logarithmic growth of detection time the paper reports.
func FailTimeoutFor(n int) time.Duration {
	if n < 2 {
		n = 2
	}
	log2n := math.Log2(float64(n))
	rounds := math.Ceil(log2n * math.Log(1/mistakeProbability) / math.Log(float64(n)))
	if min := 2 * log2n; rounds < min {
		rounds = math.Ceil(min)
	}
	return time.Duration(rounds) * gossipInterval
}

func (c Config) failAfter() time.Duration {
	if c.failTimeout > 0 {
		return c.failTimeout
	}
	return FailTimeoutFor(c.ExpectedSize)
}

// Node is one cluster node running the gossip membership scheme.
type Node struct {
	cfg Config
	eng *sim.Engine
	ep  netsim.Transport
	// Self is the node's identity, directory, own record and lifecycle,
	// with the publishing API over that record; a published change
	// propagates with the next gossip round.
	membership.Self
	ticker *sim.Ticker
	// cursor walks a received view, targets and buf hold a round's targets
	// and packet: scratch that lives on the node, allocated once.
	cursor  wire.InfoCursor
	targets []topology.HostID
	buf     []byte
}

// NewNode creates a gossip node bound to an endpoint.
func NewNode(cfg Config, ep netsim.Transport) *Node {
	if cfg.Fanout < 1 {
		cfg.Fanout = 1
	}
	n := &Node{cfg: cfg, ep: ep, Self: membership.NewSelf(membership.NodeID(ep.ID()), nil)}
	ep.SetHandler(n.Receive)
	return n
}

// Start joins the gossip overlay.
func (n *Node) Start(eng *sim.Engine) {
	if !n.Begin(eng) {
		return
	}
	n.eng = eng
	n.Directory().SetTombstoneTTL(2 * n.cfg.failAfter())
	n.ep.SetUp(true)
	jitter := time.Duration(eng.Rand().Int63n(int64(gossipInterval)))
	n.ticker = sim.NewTicker(eng, jitter, gossipInterval, n.round)
}

// Stop kills the daemon.
func (n *Node) Stop() {
	if !n.End() {
		return
	}
	n.ticker.Stop()
	n.ep.SetUp(false)
}

// round performs one gossip round: bump our counter, expire stale members,
// and send our full view to Fanout random peers.
func (n *Node) round() {
	if !n.Running() {
		return
	}
	now := n.eng.Now()
	n.Record().Beat++
	n.Directory().Upsert(n.Info(), membership.OriginSelf, 0, membership.NoNode, now)

	// Expire members whose counters stagnated.
	tf := n.cfg.failAfter()
	stale, _ := n.Directory().Expired(now, func(*membership.Entry) time.Duration { return tf })
	for _, id := range stale {
		n.Directory().Remove(id, now)
	}

	// Our entire view with counters, framed straight from the directory.
	n.buf = wire.AppendGossip(n.buf[:0], n.ID(), n.Directory(), n.cfg.EntryPad)
	n.ep.UnicastAll(n.pickTargets(), n.buf)
}

// pickTargets selects up to Fanout random live members (or seeds while the
// view is empty). The result is the node's scratch, good until the next call.
func (n *Node) pickTargets() []topology.HostID {
	candidates := n.targets[:0]
	n.Directory().Range(func(id membership.NodeID, _ *membership.Entry) {
		if id != n.ID() {
			candidates = append(candidates, topology.HostID(id))
		}
	})
	if len(candidates) == 0 {
		for _, s := range n.cfg.Seeds {
			if s != n.ID() {
				candidates = append(candidates, topology.HostID(s))
			}
		}
	}
	rng := n.eng.Rand()
	targets := candidates
	if len(candidates) > n.cfg.Fanout {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		targets = candidates[:n.cfg.Fanout]
	}
	// Occasionally gossip to a well-known seed so isolated views merge.
	if len(n.cfg.Seeds) > 0 && rng.Float64() < seedGossipProbability {
		s := topology.HostID(n.cfg.Seeds[rng.Intn(len(n.cfg.Seeds))])
		dup := s == topology.HostID(n.ID())
		for _, t := range targets {
			if t == s {
				dup = true
			}
		}
		if !dup {
			targets = append(targets, s)
		}
	}
	n.targets = targets[:0] // keep whatever the appends grew
	return targets
}

// Receive merges an incoming view. NewNode installs it as the endpoint
// handler; a layer that shares the endpoint (a service runtime) installs its
// mux in its place and delegates membership packets here.
func (n *Node) Receive(pkt netsim.Packet) {
	if !n.Running() {
		return
	}
	msg, err := pkt.Decode()
	if err != nil {
		n.ep.NoteReject()
		return
	}
	view, ok := msg.(*wire.GossipView)
	if !ok {
		return
	}
	// One relayed merge of the whole view: a record refreshes only when its
	// counter advances, which is exactly the gossip merge rule; tombstones
	// implement the "do not re-add with a stale counter" cleanup window; an
	// impossible identity drops its entry and keeps the rest of the view.
	n.cursor = view.Cursor()
	invalid := n.Directory().MergeRelayed(&n.cursor, 0, view.From, n.eng.Now(), nil, nil)
	n.cursor = wire.InfoCursor{} // do not pin the payload
	for ; invalid > 0; invalid-- {
		n.ep.NoteReject()
	}
}
