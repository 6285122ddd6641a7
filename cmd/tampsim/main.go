// Command tampsim runs one membership scenario and prints a timeline of
// view changes plus final statistics.
//
// Usage:
//
//	tampsim -scheme hierarchical -groups 5 -pergroup 20 -duration 60s -kill 30 -killat 20s
//	tampsim -scheme gossip -groups 1 -pergroup 50 -loss 0.05
//	tampsim -scheme hierarchical -scenario partition-heal     # chaos library scenario
//	tampsim -scenario @myfaults.txt                           # chaos spec file
//	tampsim -list-scenarios                                   # the library, and the spec language's verbs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/invariant"
	"repro/internal/membership"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, prints the timeline and the
// final statistics to out (diagnostics go to stderr), and returns the exit
// code — 0 for complete views and a clean audit, 1 otherwise, 2 for bad
// usage.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("tampsim", flag.ContinueOnError)
	schemeName := fs.String("scheme", "hierarchical", "membership scheme: "+strings.Join(harness.SchemeNames(), ", "))
	groups := fs.Int("groups", 3, "number of networks (switch groups)")
	perGroup := fs.Int("pergroup", 10, "nodes per network")
	duration := fs.Duration("duration", 60*time.Second, "virtual run time")
	kill := fs.Int("kill", -1, "node to kill (-1: none)")
	killAt := fs.Duration("killat", 20*time.Second, "virtual time of the kill")
	recoverAt := fs.Duration("recoverat", 0, "virtual time to restart the killed node (0: never)")
	loss := fs.Float64("loss", 0, "packet loss probability")
	seed := fs.Int64("seed", 42, "RNG seed")
	verbose := fs.Bool("v", false, "print every view-change event")
	scenarioFlag := fs.String("scenario", "", "chaos scenario: a library name, or @file for a scenario spec (-list-scenarios prints both)")
	listScenarios := fs.Bool("list-scenarios", false, "list the chaos scenario library and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *groups < 1 || *perGroup < 1 {
		fmt.Fprintln(os.Stderr, "tampsim: -groups and -pergroup must be at least 1")
		return 2
	}

	if *listScenarios {
		for _, sc := range chaos.Library(*groups, *perGroup) {
			fmt.Fprintf(out, "%-16s %s\n", sc.Name, sc.Description)
			if sc.Expect != "" {
				fmt.Fprintf(out, "%-16s expect: %s\n", "", sc.Expect)
			}
		}
		fmt.Fprintf(out, "\nThe language of -scenario @file. %s", chaos.Usage())
		return 0
	}

	scheme, err := harness.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampsim:", err)
		return 2
	}

	var scenario *chaos.Scenario
	if *scenarioFlag != "" {
		if name, ok := strings.CutPrefix(*scenarioFlag, "@"); ok {
			var text []byte
			if text, err = os.ReadFile(name); err == nil {
				scenario, err = chaos.ParseSpec(string(text))
			}
		} else {
			scenario, err = chaos.Find(*scenarioFlag, *groups, *perGroup)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tampsim:", err)
			return 2
		}
	}

	c := harness.NewCell(scheme, scenario, *groups, *perGroup, *seed)
	if *kill >= len(c.Nodes) {
		fmt.Fprintf(os.Stderr, "tampsim: -kill %d: the cluster has nodes 0..%d\n", *kill, len(c.Nodes)-1)
		return 2
	}
	if *loss > 0 {
		c.Net.SetLossProbability(*loss)
	}

	events := 0
	for _, n := range c.Nodes {
		n := n
		n.Directory().AddObserver(func(e membership.Event) {
			events++
			if *verbose {
				fmt.Fprintf(out, "%12v  node %-5v %-6v %v\n", e.Time.Round(time.Millisecond), n.ID(), e.Type, e.Node)
			}
		})
	}
	c.StartAll()

	if *kill >= 0 {
		victim := c.Nodes[*kill]
		c.Eng.ScheduleAt(*killAt, func() {
			fmt.Fprintf(out, "%12v  === killing node %v ===\n", *killAt, victim.ID())
			victim.Stop()
		})
		if *recoverAt > 0 {
			c.Eng.ScheduleAt(*recoverAt, func() {
				fmt.Fprintf(out, "%12v  === restarting node %v ===\n", *recoverAt, victim.ID())
				victim.Start(c.Eng)
			})
		}
	}

	var aud *invariant.Auditor
	runFor := *duration
	if scenario != nil {
		c.Env.Trace = func(at time.Duration, msg string) {
			fmt.Fprintf(out, "%12v  === %s ===\n", at.Round(time.Millisecond), msg)
		}
		if err := scenario.Install(c.Env); err != nil {
			fmt.Fprintln(os.Stderr, "tampsim:", err)
			return 2
		}
		if min := c.Audit.Deadline + harness.ChaosEnforce; runFor < min {
			runFor = min
		}
		aud = c.StartAuditor()
		fmt.Fprintf(out, "scenario %s: last fault at %v, audit deadline %v, running to %v\n",
			scenario.Name, scenario.End(), c.Audit.Deadline, runFor)
	}
	c.Run(runFor)

	fmt.Fprintf(out, "\nscheme=%v nodes=%d duration=%v seed=%d loss=%.3f\n",
		scheme, len(c.Nodes), runFor, *seed, *loss)
	fmt.Fprintf(out, "view-change events: %d\n", events)
	st := c.Net.TotalStats()
	fmt.Fprintf(out, "packets sent=%d recv=%d dropped=%d; bytes sent=%d recv=%d\n",
		st.PktsSent, st.PktsRecv, st.Dropped, st.BytesSent, st.BytesRecv)
	if faults := st.FaultsInjected(); faults > 0 || st.Rejected > 0 {
		fmt.Fprintf(out, "adversarial faults injected=%d (corrupt=%d truncate=%d replay=%d stale=%d gray=%d); rejected by protocol=%d\n",
			faults, st.Corrupted, st.Truncated, st.Replayed, st.Stale, st.GrayDelayed, st.Rejected)
	}
	fmt.Fprintf(out, "aggregate receive bandwidth: %.1f KB/s\n",
		float64(st.BytesRecv)/runFor.Seconds()/1024)

	full, partial := 0, 0
	alive := 0
	for _, n := range c.Nodes {
		if n.Running() {
			alive++
		}
	}
	for _, n := range c.Nodes {
		if !n.Running() {
			continue
		}
		if n.Directory().Len() == alive {
			full++
		} else {
			partial++
		}
	}
	fmt.Fprintf(out, "final views: %d complete, %d incomplete (of %d running nodes)\n", full, partial, alive)

	if agg, ok := c.CoreStats(); ok {
		fmt.Fprintf(out, "protocol stats (cluster totals): hb sent=%d recv=%d | updates orig=%d relay=%d apply=%d dup=%d\n",
			agg.HeartbeatsSent, agg.HeartbeatsReceived, agg.UpdatesOriginated,
			agg.UpdatesRelayed, agg.UpdatesApplied, agg.DuplicateUpdates)
		fmt.Fprintf(out, "                 bootstraps=%d syncs=%d elections=%d abdications=%d expiries=%d purges=%d\n",
			agg.BootstrapsServed, agg.SyncsRequested, agg.Elections,
			agg.Abdications, agg.MembersExpired, agg.RelayedPurged)
		if agg.LoadSheds > 0 || agg.Reformations > 0 || agg.RelaysStarved > 0 {
			fmt.Fprintf(out, "adaptive: load sheds=%d reformations=%d relays starved=%d\n",
				agg.LoadSheds, agg.Reformations, agg.RelaysStarved)
		}
	}
	violations := uint64(0)
	if aud != nil {
		vc, sp := aud.Stability()
		fmt.Fprintf(out, "view stability: %d transitions after warmup, %d spurious evictions\n", vc, sp)
		if scheme.ReformAudited() {
			if ok, d := aud.ReformConvergence(); ok {
				fmt.Fprintf(out, "re-formation converged %v after the last fault\n", d)
			} else {
				fmt.Fprintln(out, "re-formation never converged")
			}
		}
		fmt.Fprintf(out, "\ninvariant audit:\n%s", aud.Report())
		for _, r := range aud.Results() {
			violations += r.Violations
		}
	}
	if (aud == nil && partial > 0) || violations > 0 {
		return 1
	}
	return 0
}
