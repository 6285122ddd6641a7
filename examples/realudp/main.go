// Realudp runs the hierarchical membership protocol over real UDP sockets
// on the loopback interface: the same protocol state machines used in the
// simulations, driven by a wall-clock driver, with one socket per host and
// each sender scoping its own multicast by TTL over the configured topology
// (udp.go). It forms a 9-node, 3-group cluster with 50 ms heartbeats,
// converges, kills a node, and prints real detection latency.
//
//	go run ./examples/realudp
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	top := topology.Clustered(3, 3)
	drv := newDriver(sim.NewEngine(1))
	udp, err := newUDPNet(top, drv)
	if err != nil {
		log.Fatal(err)
	}
	defer udp.close()

	cfg := core.DefaultConfig()
	cfg.MaxTTL = top.Diameter()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.MaxLoss = 3

	var nodes []*core.Node
	for _, ep := range udp.eps {
		nodes = append(nodes, core.NewNode(cfg, ep))
	}
	drv.start()
	defer drv.stop()
	start := time.Now()
	drv.call(func() {
		for _, n := range nodes {
			n.Start(drv.eng)
		}
	})

	waitFull := func(want int) bool {
		for time.Since(start) < 15*time.Second {
			full := true
			drv.call(func() {
				for _, n := range nodes {
					if n.Running() && n.Directory().Len() != want {
						full = false
					}
				}
			})
			if full {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}

	if !waitFull(9) {
		log.Fatal("cluster did not converge over UDP")
	}
	fmt.Printf("9 nodes converged over real UDP in %v (50ms heartbeats)\n",
		time.Since(start).Round(time.Millisecond))
	drv.call(func() {
		for _, lead := range []int{0, 3, 6} {
			fmt.Printf("  node %d leads its switch group: %v\n", lead, nodes[lead].IsLeader(0))
		}
	})

	fmt.Println("killing node 4...")
	killAt := time.Now()
	drv.call(func() { nodes[4].Stop() })
	for {
		gone := true
		drv.call(func() {
			for i, n := range nodes {
				if i != 4 && n.Directory().Has(membership.NodeID(4)) {
					gone = false
				}
			}
		})
		if gone {
			break
		}
		if time.Since(killAt) > 15*time.Second {
			log.Fatal("failure never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("failure detected and propagated cluster-wide in %v (MaxLoss=3 x 50ms nominal)\n",
		time.Since(killAt).Round(time.Millisecond))
}
