// Command tampdir demonstrates the §5 daemon/client split end to end: it
// runs a simulated cluster in the background (advancing virtual time on a
// real-time pace), serves one node's yellow-page directory over a local
// socket, and answers lookup_service queries typed on stdin — the workflow
// of an operator's diagnostic shell against a production membership daemon.
//
// Usage:
//
//	tampdir -groups 3 -pergroup 5
//	> Cache 0-3         (query: service regex + partition spec)
//	> .* *
//	> kill 7            (inject a failure)
//	> quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	tamp "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout)) }

// run is the whole command: it builds the cluster, serves node 0's
// directory, and answers the session typed on in to out (diagnostics go to
// stderr). It returns the exit code — 0 when the session ends, 1 when the
// cluster or the socket fails, 2 for bad usage.
func run(args []string, in io.Reader, out io.Writer) int {
	fs := flag.NewFlagSet("tampdir", flag.ContinueOnError)
	groups := fs.Int("groups", 3, "networks")
	perGroup := fs.Int("pergroup", 5, "hosts per network")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *groups < 2 || *perGroup < 3 {
		fmt.Fprintln(os.Stderr, "tampdir: want -groups >= 2 and -pergroup >= 3 (nodes 1, 2 and the second network's first host the demo services)")
		return 2
	}

	cl := tamp.NewCluster(tamp.Clustered(*groups, *perGroup))
	// Give a few nodes services so queries have something to find.
	cl.MustService(1).RegisterService("Cache", "0-3", tamp.KV{Key: "Port", Value: "11211"})
	cl.MustService(2).RegisterService("Cache", "4-7")
	cl.MustService(tamp.HostID(*perGroup)).RegisterService("HTTP", "0", tamp.KV{Key: "Port", Value: "8080"})
	cl.StartAll()
	if !cl.WaitConverged(time.Second, time.Minute) {
		fmt.Fprintln(os.Stderr, "tampdir: cluster did not converge")
		return 1
	}
	srv, err := cl.MustService(0).ServeDirectory()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampdir:", err)
		return 1
	}
	defer srv.Close()

	client, err := tamp.DialDirectory(srv.Addr())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampdir:", err)
		return 1
	}
	defer client.Close()

	fmt.Fprintf(out, "cluster of %d nodes converged; directory served at %s\n",
		*groups**perGroup, srv.Addr())
	fmt.Fprintln(out, `queries: "<service-regex> <partition-spec>"; commands: "kill <n>", "revive <n>", "quit"`)

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "quit" || line == "exit":
			return 0
		case line == "":
		case strings.HasPrefix(line, "kill "):
			var n int
			if _, err := fmt.Sscanf(line, "kill %d", &n); err == nil && n >= 0 && n < len(cl.Services) {
				cl.MustService(tamp.HostID(n)).Stop()
				cl.Run(10 * time.Second) // let detection run
				fmt.Fprintf(out, "killed node %d; detection window elapsed\n", n)
			} else {
				fmt.Fprintln(out, "usage: kill <node>")
			}
		case strings.HasPrefix(line, "revive "):
			var n int
			if _, err := fmt.Sscanf(line, "revive %d", &n); err == nil && n >= 0 && n < len(cl.Services) {
				cl.MustService(tamp.HostID(n)).Run()
				cl.Run(10 * time.Second)
				fmt.Fprintf(out, "revived node %d\n", n)
			} else {
				fmt.Fprintln(out, "usage: revive <node>")
			}
		default:
			fields := strings.Fields(line)
			spec := "*"
			if len(fields) > 1 {
				spec = fields[1]
			}
			cl.Run(time.Second) // keep virtual time moving
			matches, err := client.Lookup(fields[0], spec)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if len(matches) == 0 {
				fmt.Fprintln(out, "(no matches)")
			}
			for _, m := range matches {
				fmt.Fprintf(out, "  node %-4v %-10s partitions %v params %v\n",
					m.Node, m.Service, m.Partitions, m.Params)
			}
		}
		fmt.Fprint(out, "> ")
	}
	return 0
}
