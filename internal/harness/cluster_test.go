package harness

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestPadForBringsHeartbeatToTarget(t *testing.T) {
	pad := padFor(HeartbeatWireTarget)
	if pad <= 0 {
		t.Fatal("no padding computed; default heartbeats are larger than 228B?")
	}
	payload := wire.Encode(&wire.Heartbeat{
		Info:   membership.MemberInfo{Node: 0, Incarnation: 1},
		Backup: membership.NoNode,
		Pad:    uint16(pad),
	})
	// The modelled size is what the network counts: the bytes plus the
	// declared tail plus UDPOverhead.
	eng := sim.NewEngine(1)
	net := netsim.New(eng, topology.FlatLAN(2))
	net.Endpoint(0).Unicast(1, payload)
	if onWire := net.Endpoint(0).Stats().BytesSent; onWire != HeartbeatWireTarget {
		t.Fatalf("padded heartbeat = %dB on wire, want exactly %d", onWire, HeartbeatWireTarget)
	}
}

// TestFigure2HeartbeatIsAKilobyte: the heartbeat whose receive Figure 2 times
// is 1024 bytes on the wire, all of them carried — a declared pad would be
// counted by the network but never decoded or checksummed.
func TestFigure2HeartbeatIsAKilobyte(t *testing.T) {
	payload := fig2Heartbeat()
	if got := len(payload) + netsim.UDPOverhead; got != 1024 {
		t.Fatalf("Figure 2's heartbeat carries %d bytes on the wire, want 1024", got)
	}
	if pad := wire.Padding(payload); pad != 0 {
		t.Fatalf("Figure 2's heartbeat declares a %d-byte tail, want its filler carried", pad)
	}
}

func TestSchemesConstructAndConverge(t *testing.T) {
	for _, scheme := range comparedSchemes {
		c := NewCluster(scheme, topology.Clustered(2, 5), 3)
		if len(c.Nodes) != 10 {
			t.Fatalf("%v: %d nodes", scheme, len(c.Nodes))
		}
		c.StartAll()
		window := 20 * time.Second
		if scheme == Gossip {
			window = 60 * time.Second
		}
		c.Run(window)
		for _, n := range c.Nodes {
			if n.Directory().Len() != 10 {
				t.Fatalf("%v: node %v sees %d members", scheme, n.ID(), n.Directory().Len())
			}
		}
	}
}

func TestSection4FixedBandwidthOrdering(t *testing.T) {
	fig := section4FixedBandwidth([]int{100, 1000})
	h := at(t, fig, "Hier det", 1000)
	a := at(t, fig, "A2A det", 1000)
	g := at(t, fig, "Gossip det", 1000)
	if !(h < a && a < g) {
		t.Fatalf("fixed-budget ordering wrong: hier=%v a2a=%v gossip=%v", h, a, g)
	}
	if at(t, fig, "Hier BDP MB", 1000) >= at(t, fig, "A2A BDP MB", 1000) {
		t.Fatal("hierarchical BDP should beat all-to-all")
	}
}
