package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// headerLen is the frame header ahead of the wire-encoded payload: src,
// dst (topology.NoHost for a multicast), channel and TTL, 4 bytes each.
const headerLen = 16

// udpNet runs a topology's hosts over real UDP sockets on the loopback
// interface, one socket per host. There is no switch in between: the
// sender applies the same topology.Topology TTL-scoping rules as netsim and
// writes one datagram to each receiver in scope.
//
// Every Transport call runs on the driver goroutine, or before the driver
// starts; so does every delivery. That is why nothing here is locked. The
// one read loop per socket runs elsewhere and only posts closures to the
// driver.
type udpNet struct {
	top *topology.Topology
	drv *driver
	eps []*udpEndpoint
	out []byte // the resident frame every send is written from
	// scratch is the buffer every endpoint lends through Scratch.
	scratch []byte

	loops sync.WaitGroup // the read loops

	// lossPerMille injects independent per-receiver drops at the sender,
	// mirroring netsim's loss model over the real transport; lossState is
	// the splitmix64 stream each receiver's draw takes one step of.
	lossPerMille int
	lossState    uint64
}

// udpEndpoint is host id's netsim.Transport.
type udpEndpoint struct {
	udp     *udpNet
	id      topology.HostID
	conn    *net.UDPConn
	addr    *net.UDPAddr
	up      bool
	subs    map[netsim.ChannelID]bool
	handler netsim.Handler
}

// newUDPNet opens one loopback socket per host of top and starts its read
// loop; udp.eps[h] is host h's transport. Close it with close.
func newUDPNet(top *topology.Topology, drv *driver) (*udpNet, error) {
	u := &udpNet{top: top, drv: drv}
	for h := 0; h < top.NumHosts(); h++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			u.close()
			return nil, fmt.Errorf("realudp: listen: %w", err)
		}
		u.eps = append(u.eps, &udpEndpoint{
			udp:  u,
			id:   topology.HostID(h),
			conn: conn,
			addr: conn.LocalAddr().(*net.UDPAddr),
			up:   true,
			subs: make(map[netsim.ChannelID]bool),
		})
	}
	u.loops.Add(len(u.eps))
	for _, ep := range u.eps {
		go ep.readLoop()
	}
	return u, nil
}

// close shuts every socket down and waits for the read loops to end. Call
// it after the driver stops, so that no read loop waits to post.
func (u *udpNet) close() {
	for _, ep := range u.eps {
		ep.conn.Close()
	}
	u.loops.Wait()
}

// drop decides one delivery's fate.
func (u *udpNet) drop() bool {
	if u.lossPerMille == 0 {
		return false
	}
	u.lossState += 0x9E3779B97F4A7C15
	z := u.lossState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z%1000) < u.lossPerMille
}

// frame writes the header and payload into the resident buffer.
func (u *udpNet) frame(src, dst topology.HostID, ch netsim.ChannelID, ttl int, payload []byte) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32(le.AppendUint32(u.out[:0], uint32(src)), uint32(dst))
	u.out = append(le.AppendUint32(le.AppendUint32(buf, uint32(ch)), uint32(ttl)), payload...)
	return u.out
}

// ID implements netsim.Transport.
func (ep *udpEndpoint) ID() topology.HostID { return ep.id }

// SetHandler implements netsim.Transport.
func (ep *udpEndpoint) SetHandler(h netsim.Handler) { ep.handler = h }

// SetUp implements netsim.Transport.
func (ep *udpEndpoint) SetUp(up bool) { ep.up = up }

// Join implements netsim.Transport.
func (ep *udpEndpoint) Join(ch netsim.ChannelID) { ep.subs[ch] = true }

// Leave implements netsim.Transport.
func (ep *udpEndpoint) Leave(ch netsim.ChannelID) { delete(ep.subs, ch) }

// NoteReject implements netsim.Transport. It counts nothing: nothing reads
// a real endpoint's rejects.
func (ep *udpEndpoint) NoteReject() {}

// Scratch implements netsim.Transport: the driver goroutine runs every
// endpoint, so they share one buffer.
func (ep *udpEndpoint) Scratch() *[]byte { return &ep.udp.scratch }

// Multicast implements netsim.Transport: one datagram to each host in the
// TTL scope that is up and subscribed, unless the loss draw drops it. A
// write that fails is a lost datagram, which the protocols recover from.
func (ep *udpEndpoint) Multicast(ch netsim.ChannelID, ttl int, payload []byte) {
	if !ep.up {
		return
	}
	u := ep.udp
	frame := u.frame(ep.id, topology.NoHost, ch, ttl, payload)
	for _, dst := range u.top.MulticastScope(ep.id, ttl).Hosts {
		if rx := u.eps[dst]; rx.up && rx.subs[ch] && !u.drop() {
			ep.conn.WriteToUDP(frame, rx.addr)
		}
	}
}

// Unicast implements netsim.Transport. Like UDP, the sender learns nothing
// of the delivery, so this reports true whenever the endpoint is up.
func (ep *udpEndpoint) Unicast(dst topology.HostID, payload []byte) bool {
	if !ep.up {
		return false
	}
	u := ep.udp
	if dst >= 0 && int(dst) < len(u.eps) && u.eps[dst].up && u.top.UnicastLatency(ep.id, dst) >= 0 && !u.drop() {
		ep.conn.WriteToUDP(u.frame(ep.id, dst, 0, 0, payload), u.eps[dst].addr)
	}
	return true
}

// UnicastAll implements netsim.Transport: one Unicast per host.
func (ep *udpEndpoint) UnicastAll(dsts []topology.HostID, payload []byte) {
	for _, dst := range dsts {
		ep.Unicast(dst, payload)
	}
}

// readLoop parses the frames that arrive on ep's socket and posts each to
// the driver, which hands it to the handler if ep is still up and, for a
// multicast, still subscribed.
func (ep *udpEndpoint) readLoop() {
	defer ep.udp.loops.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := ep.conn.ReadFromUDP(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil || n < headerLen {
			continue
		}
		le := binary.LittleEndian
		pkt := netsim.Packet{
			Src:     topology.HostID(le.Uint32(buf[0:4])),
			Dst:     topology.HostID(le.Uint32(buf[4:8])),
			Channel: netsim.ChannelID(le.Uint32(buf[8:12])),
			TTL:     int(le.Uint32(buf[12:16])),
			Payload: append([]byte(nil), buf[headerLen:n]...),
		}
		ep.udp.drv.post(func() {
			if ep.up && (!pkt.Multicast() || ep.subs[pkt.Channel]) && ep.handler != nil {
				ep.handler(pkt)
			}
		})
	}
}

var _ netsim.Transport = (*udpEndpoint)(nil)
