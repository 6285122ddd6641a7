// Multidc deploys the membership service across two data centers joined by
// a WAN, with membership proxies in each (§3.2): proxies elect a leader
// holding the data center's external virtual IP, exchange per-service
// membership summaries over unicast, and relay service invocations across
// data centers (Figure 6). The example invokes a service that exists only
// remotely, then kills the local proxy leader and shows the IP failover.
//
//	go run ./examples/multidc
package main

import (
	"fmt"
	"log"
	"time"

	tamp "repro"
)

func main() {
	// Two data centers, 1 network x 6 hosts each. Hosts 0-5 = DC0 (A),
	// hosts 6-11 = DC1 (B). Proxies: 1,2 in A; 7,8 in B. A "Ledger"
	// service runs only in B (hosts 9-10).
	d := tamp.NewDataCenters(tamp.MultiDC(2, 1, 6), 2, 3)
	for _, h := range []tamp.HostID{9, 10} {
		err := d.App(h).Provide("Ledger", "0-1", time.Millisecond,
			func(p int32, b []byte) ([]byte, error) {
				return []byte(fmt.Sprintf("balance(p%d)=42", p)), nil
			})
		if err != nil {
			log.Fatal(err)
		}
	}

	d.StartAll()
	d.Run(25 * time.Second) // membership + summary convergence

	a0, _ := d.VIP(0)
	a1, _ := d.VIP(1)
	fmt.Printf("proxy leaders: DC-A vip=host %v, DC-B vip=host %v\n", a0, a1)

	// Cross-DC invocation from a plain DC-A node.
	invoke := func(tag string) {
		start := d.Now()
		d.App(4).Invoke("Ledger", 1, []byte("q"), func(b []byte, err error) {
			if err != nil {
				fmt.Printf("%s: FAILED: %v\n", tag, err)
				return
			}
			fmt.Printf("%s: %q in %v (crossed the WAN twice)\n",
				tag, b, (d.Now() - start).Round(time.Millisecond))
		})
		d.Run(2 * time.Second)
	}
	invoke("invoke via proxies")

	// Kill DC-A's proxy leader's host; the backup takes over the virtual IP.
	fmt.Printf("\nt=%v: killing DC-A proxy leader (host %v)\n", d.Now().Round(time.Second), a0)
	d.App(a0).Stop()
	d.Run(15 * time.Second)
	b0, _ := d.VIP(0)
	fmt.Printf("t=%v: DC-A vip moved to host %v (IP failover)\n", d.Now().Round(time.Second), b0)
	invoke("invoke after failover")
}
