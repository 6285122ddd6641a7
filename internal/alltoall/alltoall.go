package alltoall

import (
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parametrizes an all-to-all node.
type Config struct {
	// Channel is the single cluster-wide multicast channel.
	Channel netsim.ChannelID
	// TTL must cover the whole cluster (at least the topology diameter).
	TTL int
	// HeartbeatPad is the uncarried tail each heartbeat declares, to emulate
	// configured packet sizes (wire.Heartbeat.Pad).
	HeartbeatPad int
}

// The paper's experiment settings (§6.2), fixed.
const (
	// heartbeatInterval is the multicast period: 1 Hz.
	heartbeatInterval = time.Second
	// deadAfter is the silence after which a node is declared dead: MAX_LOSS
	// = 5 consecutive heartbeats.
	deadAfter = 5 * heartbeatInterval
)

// DefaultConfig is channel 1 at a TTL that covers any topology built here.
func DefaultConfig() Config {
	return Config{Channel: 1, TTL: 8}
}

// Node is one cluster node running the all-to-all membership scheme.
type Node struct {
	cfg  Config
	eng  *sim.Engine
	ep   netsim.Transport
	id   membership.NodeID
	dir  *membership.Directory
	info membership.MemberInfo
	// Publisher is the publishing API (RegisterService, UpdateValue,
	// DeleteValue, Info) over info.
	membership.Publisher
	hb      *sim.Ticker
	tracker *sim.Ticker
	running bool
	// marks is the replay guard: heartbeats that fail to advance their
	// sender's (incarnation, beat) must not refresh liveness. Nothing ever
	// clears a mark.
	marks membership.Table[membership.Mark]
	// sweepDue is the earliest instant an expiry sweep can find anything.
	sweepDue time.Duration
	// enc frames heartbeats into buf, the node's resident send buffer, which
	// the transport copies from; beat is the outgoing heartbeat, overwritten
	// per send (a fresh one would escape through wire.Message).
	enc  wire.Encoder
	buf  []byte
	beat wire.Heartbeat
}

// NewNode creates a node bound to an endpoint.
func NewNode(cfg Config, ep netsim.Transport) *Node {
	id := membership.NodeID(ep.ID())
	n := &Node{
		cfg:  cfg,
		ep:   ep,
		id:   id,
		dir:  membership.NewDirectory(id),
		info: membership.MemberInfo{Node: id},
	}
	n.Publisher = membership.NewPublisher(&n.info, n.published)
	ep.SetHandler(n.Receive)
	return n
}

// ID returns the node identity.
func (n *Node) ID() membership.NodeID { return n.id }

// Directory returns the node's yellow-page directory.
func (n *Node) Directory() *membership.Directory { return n.dir }

// Running reports whether the node is started.
func (n *Node) Running() bool { return n.running }

// published runs after every versioned change of the node's own record.
func (n *Node) published() {
	if n.running {
		n.dir.Upsert(n.info.Clone(), membership.OriginSelf, 0, membership.NoNode, n.eng.Now())
	}
}

// Start joins the cluster channel and begins heartbeating.
func (n *Node) Start(eng *sim.Engine) {
	if n.running {
		return
	}
	n.eng = eng
	n.running = true
	n.info.Incarnation++
	n.dir.Upsert(n.info.Clone(), membership.OriginSelf, 0, membership.NoNode, eng.Now())
	n.ep.SetUp(true)
	n.ep.Join(n.cfg.Channel)
	jitter := time.Duration(eng.Rand().Int63n(int64(heartbeatInterval)))
	n.hb = sim.NewTicker(eng, jitter, heartbeatInterval, n.sendHeartbeat)
	n.tracker = sim.NewTicker(eng, heartbeatInterval/2, heartbeatInterval/2, n.track)
}

// Stop kills the daemon.
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	n.hb.Stop()
	n.tracker.Stop()
	n.ep.Leave(n.cfg.Channel)
	n.ep.SetUp(false)
}

func (n *Node) sendHeartbeat() {
	if !n.running {
		return
	}
	n.info.Beat++
	n.beat = wire.Heartbeat{
		Info:   n.info, // encoded synchronously below, so no defensive clone
		Backup: membership.NoNode,
		Seq:    n.info.Beat,
		Pad:    uint16(n.cfg.HeartbeatPad),
	}
	n.buf = n.enc.AppendEncode(n.buf[:0], &n.beat)
	n.ep.Multicast(n.cfg.Channel, n.cfg.TTL, n.buf)
}

// Receive handles one delivered packet. NewNode installs it as the endpoint
// handler; a layer that shares the endpoint (a service runtime) installs its
// mux in its place and delegates membership packets here.
func (n *Node) Receive(pkt netsim.Packet) {
	if !n.running {
		return
	}
	msg, err := pkt.Decode()
	if err != nil {
		n.ep.NoteReject()
		return
	}
	if hb, ok := msg.(*wire.Heartbeat); ok {
		n.onHeartbeat(hb)
	}
}

// onHeartbeat is the scheme's own work on a decoded heartbeat: the replay
// guard and the directory refresh.
func (n *Node) onHeartbeat(hb *wire.Heartbeat) {
	if hb.Info.Node == n.id {
		return
	}
	if hb.Info.Node < 0 {
		n.ep.NoteReject()
		return
	}
	if !n.marks.Ensure(hb.Info.Node).Advance(hb.Info.Incarnation, hb.Info.Beat) {
		n.ep.NoteReject()
		return
	}
	n.dir.Upsert(hb.Info, membership.OriginDirect, 0, membership.NoNode, n.eng.Now())
}

func (n *Node) track() {
	if !n.running {
		return
	}
	now := n.eng.Now()
	if now < n.sweepDue {
		return
	}
	dead, next := n.dir.Expired(now, func(*membership.Entry) time.Duration { return deadAfter })
	for _, id := range dead {
		n.dir.Remove(id, now)
	}
	// Nothing can expire before min(next, now+deadAfter); the ticks until
	// then are skipped, the grid they fall on is not (see the package doc).
	n.sweepDue = now + deadAfter
	if next < n.sweepDue {
		n.sweepDue = next
	}
}
