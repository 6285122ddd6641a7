package realnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// frame kinds on the wire between endpoints and hub.
const (
	frameMulticast = 1
	frameUnicast   = 2
)

// header: kind(1) src(4) a(4) b(4) — for multicast a=channel, b=ttl; for
// unicast a=dst, b unused.
const headerLen = 13

// Hub is the emulated switching fabric.
type Hub struct {
	top  *topology.Topology
	conn *net.UDPConn

	mu    sync.Mutex
	addrs map[topology.HostID]*net.UDPAddr
	subs  map[topology.HostID]map[netsim.ChannelID]bool
	up    map[topology.HostID]bool

	closed chan struct{}
	wg     sync.WaitGroup

	// loss injects independent per-receiver drops at the hub, mirroring
	// netsim's loss model over the real transport. Stored as per-mille to
	// stay lock-friendly.
	lossPerMille int
	lossState    uint64
}

// setLossProbability injects independent per-receiver packet drops at the
// hub (0 disables). Resolution is 0.1%.
func (h *Hub) setLossProbability(p float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 0.999
	}
	h.lossPerMille = int(p * 1000)
}

// drop decides one delivery's fate; caller holds h.mu.
func (h *Hub) drop() bool {
	if h.lossPerMille == 0 {
		return false
	}
	// splitmix64 step; deterministic across runs for a fresh hub.
	h.lossState += 0x9E3779B97F4A7C15
	z := h.lossState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z%1000) < h.lossPerMille
}

// NewHub starts a hub bound to a loopback UDP port.
func NewHub(top *topology.Topology) (*Hub, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("realnet: hub listen: %w", err)
	}
	h := &Hub{
		top:    top,
		conn:   conn,
		addrs:  make(map[topology.HostID]*net.UDPAddr),
		subs:   make(map[topology.HostID]map[netsim.ChannelID]bool),
		up:     make(map[topology.HostID]bool),
		closed: make(chan struct{}),
	}
	h.wg.Add(1)
	go h.serve()
	return h, nil
}

// Addr returns the hub's UDP address.
func (h *Hub) Addr() *net.UDPAddr { return h.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the hub down.
func (h *Hub) Close() {
	select {
	case <-h.closed:
		return
	default:
	}
	close(h.closed)
	h.conn.Close()
	h.wg.Wait()
}

// register binds a host to its endpoint socket address.
func (h *Hub) register(host topology.HostID, addr *net.UDPAddr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.addrs[host] = addr
	h.subs[host] = make(map[netsim.ChannelID]bool)
	h.up[host] = true
}

func (h *Hub) setUp(host topology.HostID, up bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.up[host] = up
}

func (h *Hub) join(host topology.HostID, ch netsim.ChannelID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.subs[host]; s != nil {
		s[ch] = true
	}
}

func (h *Hub) leave(host topology.HostID, ch netsim.ChannelID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.subs[host]; s != nil {
		delete(s, ch)
	}
}

// serve forwards frames per topology scope and subscriptions.
func (h *Hub) serve() {
	defer h.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := h.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-h.closed:
				return
			default:
				continue
			}
		}
		if n < headerLen {
			continue
		}
		kind := buf[0]
		src := topology.HostID(binary.LittleEndian.Uint32(buf[1:5]))
		a := binary.LittleEndian.Uint32(buf[5:9])
		b := binary.LittleEndian.Uint32(buf[9:13])
		frame := make([]byte, n)
		copy(frame, buf[:n])

		h.mu.Lock()
		if !h.up[src] {
			h.mu.Unlock()
			continue
		}
		switch kind {
		case frameMulticast:
			ch := netsim.ChannelID(a)
			ttl := int(b)
			scope := h.top.MulticastScope(src, ttl)
			for _, dst := range scope.Hosts {
				if !h.up[dst] || !h.subs[dst][ch] || h.drop() {
					continue
				}
				if addr := h.addrs[dst]; addr != nil {
					h.conn.WriteToUDP(frame, addr)
				}
			}
		case frameUnicast:
			dst := topology.HostID(a)
			if int(dst) < h.top.NumHosts() && h.up[dst] &&
				h.top.UnicastLatency(src, dst) >= 0 && !h.drop() {
				if addr := h.addrs[dst]; addr != nil {
					h.conn.WriteToUDP(frame, addr)
				}
			}
		}
		h.mu.Unlock()
	}
}

// Endpoint is a real-UDP implementation of netsim.Transport. Sends write
// to the hub's socket; receives arrive on the endpoint's own socket, are
// parsed, and are injected into the owning Driver so handlers run on the
// single protocol goroutine.
type Endpoint struct {
	hub    *Hub
	drv    *Driver
	id     topology.HostID
	conn   *net.UDPConn
	closed chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	up      bool
	subs    map[netsim.ChannelID]bool
	handler netsim.Handler
	out     []byte // the resident frame every send is written from (send)
}

// NewEndpoint creates and registers an endpoint for host id.
func NewEndpoint(hub *Hub, drv *Driver, id topology.HostID) (*Endpoint, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("realnet: endpoint listen: %w", err)
	}
	ep := &Endpoint{
		hub:    hub,
		drv:    drv,
		id:     id,
		conn:   conn,
		closed: make(chan struct{}),
		up:     true,
		subs:   make(map[netsim.ChannelID]bool),
	}
	hub.register(id, conn.LocalAddr().(*net.UDPAddr))
	ep.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

// Close shuts the endpoint's socket down.
func (ep *Endpoint) Close() {
	select {
	case <-ep.closed:
		return
	default:
	}
	close(ep.closed)
	ep.conn.Close()
	ep.wg.Wait()
}

// ID implements netsim.Transport.
func (ep *Endpoint) ID() topology.HostID { return ep.id }

// SetHandler implements netsim.Transport.
func (ep *Endpoint) SetHandler(h netsim.Handler) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handler = h
}

// HasHandler implements netsim.Transport.
func (ep *Endpoint) HasHandler() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.handler != nil
}

// SetUp implements netsim.Transport.
func (ep *Endpoint) SetUp(up bool) {
	ep.mu.Lock()
	ep.up = up
	ep.mu.Unlock()
	ep.hub.setUp(ep.id, up)
}

// Up implements netsim.Transport.
func (ep *Endpoint) Up() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.up
}

// Join implements netsim.Transport.
func (ep *Endpoint) Join(ch netsim.ChannelID) {
	ep.mu.Lock()
	ep.subs[ch] = true
	ep.mu.Unlock()
	ep.hub.join(ep.id, ch)
}

// Leave implements netsim.Transport.
func (ep *Endpoint) Leave(ch netsim.ChannelID) {
	ep.mu.Lock()
	delete(ep.subs, ch)
	ep.mu.Unlock()
	ep.hub.leave(ep.id, ch)
}

// Joined implements netsim.Transport.
func (ep *Endpoint) Joined(ch netsim.ChannelID) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.subs[ch]
}

// NoteReject implements netsim.Transport. It counts nothing: no caller reads
// a real endpoint's rejects (ROADMAP item 9 decides what this layer keeps).
func (ep *Endpoint) NoteReject() {}

// send frames payload behind the hub header in the endpoint's resident
// buffer, under ep.mu, and writes it to the hub, which copies it.
func (ep *Endpoint) send(kind byte, a, b uint32, payload []byte) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	le := binary.LittleEndian
	buf := le.AppendUint32(append(ep.out[:0], kind), uint32(ep.id))
	ep.out = append(le.AppendUint32(le.AppendUint32(buf, a), b), payload...)
	ep.conn.WriteToUDP(ep.out, ep.hub.Addr())
}

// Multicast implements netsim.Transport.
func (ep *Endpoint) Multicast(ch netsim.ChannelID, ttl int, payload []byte) {
	if !ep.Up() {
		return
	}
	ep.send(frameMulticast, uint32(ch), uint32(ttl), payload)
}

// Unicast implements netsim.Transport. Reachability is enforced by the
// hub; like UDP, the sender learns nothing, so this always reports true
// while the endpoint is up.
func (ep *Endpoint) Unicast(dst topology.HostID, payload []byte) bool {
	if !ep.Up() {
		return false
	}
	ep.send(frameUnicast, uint32(dst), 0, payload)
	return true
}

// UnicastAll implements netsim.Transport: one Unicast per host.
func (ep *Endpoint) UnicastAll(dsts []topology.HostID, payload []byte) {
	for _, dst := range dsts {
		ep.Unicast(dst, payload)
	}
}

// readLoop parses delivered frames and injects them into the driver.
func (ep *Endpoint) readLoop() {
	defer ep.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-ep.closed:
				return
			default:
				continue
			}
		}
		if n < headerLen {
			continue
		}
		kind := buf[0]
		src := topology.HostID(binary.LittleEndian.Uint32(buf[1:5]))
		a := binary.LittleEndian.Uint32(buf[5:9])
		b := binary.LittleEndian.Uint32(buf[9:13])
		payload := make([]byte, n-headerLen)
		copy(payload, buf[headerLen:n])

		pkt := netsim.Packet{Src: src, Payload: payload}
		switch kind {
		case frameMulticast:
			pkt.Dst = topology.NoHost
			pkt.Channel = netsim.ChannelID(a)
			pkt.TTL = int(b)
		case frameUnicast:
			pkt.Dst = topology.HostID(a)
		default:
			continue
		}
		ep.drv.Inject(func() {
			ep.mu.Lock()
			up, h, subscribed := ep.up, ep.handler, !pkt.Multicast() || ep.subs[pkt.Channel]
			ep.mu.Unlock()
			if up && subscribed && h != nil {
				h(pkt)
			}
		})
	}
}

var _ netsim.Transport = (*Endpoint)(nil)
