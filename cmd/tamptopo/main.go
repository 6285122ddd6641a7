// Command tamptopo inspects topology-aware group formation: it builds a
// topology, runs the hierarchical membership protocol to convergence, and
// prints the emerged tree — which nodes lead which level, and each group's
// membership as scoped by TTL.
//
// Usage:
//
//	tamptopo -topo clustered -groups 5 -pergroup 20
//	tamptopo -topo figure4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, prints the emerged tree to out
// (diagnostics go to stderr), and returns the exit code — 0, or 2 for bad
// usage.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("tamptopo", flag.ContinueOnError)
	topoName := fs.String("topo", "clustered", "topology: flat, clustered, figure4")
	groups := fs.Int("groups", 3, "networks (clustered) ")
	perGroup := fs.Int("pergroup", 5, "hosts per network")
	settle := fs.Duration("settle", 30*time.Second, "virtual time to let the tree form")
	seed := fs.Int64("seed", 42, "RNG seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var top *topology.Topology
	switch *topoName {
	case "flat":
		top = topology.FlatLAN(*perGroup)
	case "clustered":
		top = topology.Clustered(*groups, *perGroup)
	case "figure4":
		top = topology.Figure4(*perGroup)
	default:
		fmt.Fprintf(os.Stderr, "tamptopo: unknown topology %q\n", *topoName)
		return 2
	}

	fmt.Fprintf(out, "topology: %s, %d hosts, %d devices, diameter (min TTL to span) = %d\n\n",
		*topoName, top.NumHosts(), top.NumDevices(), top.Diameter())

	c := harness.NewCluster(harness.Hierarchical, top, *seed)
	c.StartAll()
	c.Run(*settle)

	maxLevel := top.Diameter()
	for lvl := 0; lvl < maxLevel; lvl++ {
		var leaders []*core.Node
		for _, n := range c.Nodes {
			cn := n.(*core.Node)
			if cn.IsLeader(lvl) {
				leaders = append(leaders, cn)
			}
		}
		if len(leaders) == 0 {
			continue
		}
		fmt.Fprintf(out, "level %d (TTL %d): %d group(s)\n", lvl, lvl+1, len(leaders))
		for _, l := range leaders {
			scope := top.MulticastScope(topology.HostID(l.ID()), lvl+1)
			fmt.Fprintf(out, "  leader %-5v topology scope: %v", l.ID(), l.ID())
			for _, h := range scope.Hosts {
				fmt.Fprintf(out, " %v", h)
			}
			fmt.Fprintf(out, "\n%14s protocol view:  %v %v\n", "", l.ID(), l.GroupMembers(lvl))
		}
	}

	fmt.Fprintln(out, "\nper-node channel membership:")
	for _, n := range c.Nodes {
		cn := n.(*core.Node)
		fmt.Fprintf(out, "  node %-5v levels=%v", cn.ID(), cn.Levels())
		for _, lvl := range cn.Levels() {
			if cn.IsLeader(lvl) {
				fmt.Fprintf(out, " leader@%d", lvl)
			}
		}
		fmt.Fprintln(out)
	}

	complete := 0
	for _, n := range c.Nodes {
		if n.Directory().Len() == top.NumHosts() {
			complete++
		}
	}
	fmt.Fprintf(out, "\nviews: %d/%d nodes hold the complete directory\n", complete, top.NumHosts())
	return 0
}
