// Loadbalance contrasts the two provider-selection strategies the paper
// discusses: synchronous random polling (poll two random replicas, pick
// the less loaded — Shen et al., used by Neptune) and the §6.1 extension
// where providers push load reports to recently interested consumers, so
// the consumer dispatches from its cache without the poll round trip.
//
// A deliberately unbalanced workload (background requests pinned to one
// replica) shows both strategies steering the measured traffic away from
// the hot replica, with the push variant saving the poll exchange.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"time"

	tamp "repro"
)

func run(name string, push bool) {
	s := tamp.NewSim(tamp.FlatLAN(5), 11)
	cfg := tamp.AppConfig{EnableLoadPush: push}
	apps := make([]*tamp.App, 5)
	for h := 0; h < 5; h++ {
		apps[h] = tamp.NewAppConfig(s, tamp.HostID(h), cfg)
	}
	served := map[int]int{}
	for _, h := range []int{1, 2, 3, 4} {
		h := h
		apps[h].Provide("Work", "0", 4*time.Millisecond, func(int32, []byte) ([]byte, error) {
			served[h]++
			return nil, nil
		})
	}
	for _, a := range apps {
		a.Run()
	}
	s.Run(10 * time.Second)

	// Background load: replica 1 carries a saturating stream addressed to
	// it through a second "pinned" service only it provides (9 ms of work
	// arriving every 5 ms — its queue only grows).
	apps[1].Provide("Pinned", "0", 9*time.Millisecond, func(int32, []byte) ([]byte, error) {
		return nil, nil
	})
	s.Run(5 * time.Second)
	s.ResetNetworkStats()
	done := 0
	for i := 0; i < 600; i++ {
		apps[0].Invoke("Pinned", 0, nil, func([]byte, error) {}) // keeps replica 1 busy
		apps[0].Invoke("Work", 0, nil, func(b []byte, err error) {
			if err == nil {
				done++
			}
		})
		s.Run(5 * time.Millisecond)
	}
	s.Run(5 * time.Second)

	total := served[1] + served[2] + served[3] + served[4]
	fmt.Printf("%-22s completed %d/600; Work per replica: hot=%d others=%d/%d/%d (hot share %.0f%%); packets=%d\n",
		name, done, served[1], served[2], served[3], served[4],
		100*float64(served[1])/float64(total), s.NetworkStats().PktsSent)
}

func main() {
	fmt.Println("4 replicas; replica 1 is kept busy by a pinned background stream.")
	fmt.Println("Both strategies steer Work traffic away from the hot replica:")
	fmt.Println()
	run("random polling", false)
	run("pushed load reports", true)
}
