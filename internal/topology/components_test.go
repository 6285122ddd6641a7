package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// componentTopologies are the graphs the reachability property runs over:
// the paper's clustered layout, three data centers joined by a WAN
// triangle, and irregular router trees with layer-2 chains.
func componentTopologies() map[string]func() *Topology {
	tops := map[string]func() *Topology{
		"clustered": func() *Topology { return Clustered(3, 4) },
		"multidc":   func() *Topology { return MultiDC(3, 2, 3) },
	}
	for seed := int64(1); seed <= 4; seed++ {
		tops[fmt.Sprintf("random-%d", seed)] = func() *Topology { return Random(seed, 3, 5, 12) }
	}
	return tops
}

// reachScript applies a seeded sequence of failures, repairs, re-homings and
// link marks to top and runs check after every step. It returns the first
// disagreement check reports, with the step that led to it, or "".
func reachScript(top *Topology, seed int64, steps int, check func(*Topology) string) string {
	rng := rand.New(rand.NewSource(seed))
	var switches []DeviceID
	for id := 0; id < top.NumDevices(); id++ {
		if top.devices[DeviceID(id)].Kind != KindHost {
			switches = append(switches, DeviceID(id))
		}
	}
	for step := 0; step < steps; step++ {
		links := top.Links()
		l := links[rng.Intn(len(links))]
		dev := DeviceID(rng.Intn(top.NumDevices()))
		var op string
		switch rng.Intn(6) {
		case 0:
			top.FailDevice(dev)
			op = "fail " + top.devices[dev].Name
		case 1:
			top.RepairDevice(dev)
			op = "repair " + top.devices[dev].Name
		case 2, 3: // cuts outnumber the other steps, so partitions build up
			top.FailLink(l.A, l.B)
			op = "cut " + top.devices[l.A].Name + "-" + top.devices[l.B].Name
		case 4:
			top.RepairLink(l.A, l.B)
			op = "mend " + top.devices[l.A].Name + "-" + top.devices[l.B].Name
		case 5:
			if rng.Intn(2) == 0 {
				h := HostID(rng.Intn(top.NumHosts()))
				to := switches[rng.Intn(len(switches))]
				top.RehomeHost(h, to)
				op = fmt.Sprintf("rehome host %d to %s", h, top.devices[to].Name)
			} else {
				top.MarkLink(l.A, l.B)
				op = "mark " + top.devices[l.A].Name + "-" + top.devices[l.B].Name
			}
		}
		if bad := check(top); bad != "" {
			return fmt.Sprintf("step %d (%s): %s", step, op, bad)
		}
	}
	return ""
}

// labelsMatchUnicast is the check that label's connectivity labels agree
// with UnicastPath for every host pair (a host whose own device has failed
// included).
func labelsMatchUnicast(label func(*Topology) []int32) func(*Topology) string {
	return func(top *Topology) string {
		labels := label(top)
		for x := HostID(0); x < HostID(top.NumHosts()); x++ {
			for y := HostID(0); y < HostID(top.NumHosts()); y++ {
				lat, _ := top.UnicastPath(x, y)
				if same := labels[x] >= 0 && labels[x] == labels[y]; same != (lat >= 0) {
					return fmt.Sprintf("hosts %d,%d labelled %d,%d but unicast latency %v",
						x, y, labels[x], labels[y], lat)
				}
			}
		}
		return ""
	}
}

// TestHostComponentsMatchUnicast is the reference for the auditor's
// reachability: equal non-negative HostComponents labels iff a unicast path
// exists, under every kind of topology mutation.
func TestHostComponentsMatchUnicast(t *testing.T) {
	for name, build := range componentTopologies() {
		for seed := int64(0); seed < 4; seed++ {
			if bad := reachScript(build(), seed, 40, labelsMatchUnicast((*Topology).HostComponents)); bad != "" {
				t.Errorf("%s seed %d: %s", name, seed, bad)
			}
		}
	}
}

// TestHostComponentsPropertyBites shows the property above catches a
// labelling that floods across cut links: every script disagrees with it.
func TestHostComponentsPropertyBites(t *testing.T) {
	ignoringCuts := func(top *Topology) []int32 {
		cut := top.failedLinks
		top.failedLinks = nil
		defer func() { top.failedLinks = cut }()
		return top.HostComponents()
	}
	for name, build := range componentTopologies() {
		for seed := int64(0); seed < 4; seed++ {
			if reachScript(build(), seed, 40, labelsMatchUnicast(ignoringCuts)) == "" {
				t.Errorf("%s seed %d: a labelling that ignores failed links passed", name, seed)
			}
		}
	}
}
