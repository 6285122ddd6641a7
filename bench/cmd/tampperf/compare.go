package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/bench/perf"
)

// contractFile is the part of BENCHMARK.json the A/A verdict needs.
type contractFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRun is one line bench/aa.sh recorded: "<workload> <seed> <sim_digest> <result json>".
type aaRun struct {
	workload, seed, digest string
	res                    line
}

func readSet(path string) ([]aaRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []aaRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), " ", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		r := aaRun{workload: parts[0], seed: parts[1], digest: parts[2]}
		if err := json.Unmarshal([]byte(parts[3]), &r.res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartile spreads and their disagreement beside the bound, and
// checks that runs of one seed simulated exactly the same thing. It returns
// 1 on any breach.
func compareSets(files, contractPath string, stdout, stderr io.Writer) int {
	a, b, ok := strings.Cut(files, ",")
	if !ok {
		fmt.Fprintln(stderr, "tampperf: --compare wants two comma-separated files")
		return 2
	}
	var c contractFile
	data, err := os.ReadFile(contractPath)
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	var setA, setB []aaRun
	if err == nil {
		setA, err = readSet(a)
	}
	if err == nil {
		setB, err = readSet(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tampperf: %v\n", err)
		return 2
	}

	breaches := 0
	fmt.Fprintln(stdout, "| workload | metric | median A | spread A | median B | spread B | B vs A | bound | verdict |")
	fmt.Fprintln(stdout, "|---|---|---:|---:|---:|---:|---:|---:|---|")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := values(setA, w.Name, m.Name), values(setB, w.Name, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(stdout, "| %s | %s | | | | | | | MISSING |\n", w.Name, m.Name)
				breaches++
				continue
			}
			q1a, medA, q3a := perf.Quartiles(va)
			q1b, medB, q3b := perf.Quartiles(vb)
			spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
			disagree := (medB - medA) / medA
			verdict := "ok"
			// The set-up time's spread is reported but not held to the
			// bound, as in the acceptance rule; its medians are.
			if math.Abs(disagree) > m.Bound || (m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g %s | %.2f%% | %.6g %s | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, medA, m.Unit, 100*spreadA, medB, m.Unit, 100*spreadB, 100*disagree, 100*m.Bound, verdict)
		}
	}

	// Same seed, same simulation: every sim_* value and the digest must be
	// bit-identical between the two sets.
	pairs, differing := 0, 0
	for _, ra := range setA {
		for _, rb := range setB {
			if ra.workload != rb.workload || ra.seed != rb.seed {
				continue
			}
			pairs++
			same := ra.digest == rb.digest
			for name, v := range ra.res.Metrics {
				if strings.HasPrefix(name, "sim_") && rb.res.Metrics[name] != v {
					same = false
				}
			}
			if !same {
				differing++
				fmt.Fprintf(stdout, "\nDIFFERENT SIMULATION: %s seed %s: digest %s vs %s\n", ra.workload, ra.seed, ra.digest, rb.digest)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d same-seed pairs compared, %d with differing sim_* values or sim_digest; %d metric breaches.\n", pairs, differing, breaches)
	if breaches+differing > 0 {
		return 1
	}
	return 0
}

func values(set []aaRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range set {
		if m, ok := r.res.Metrics[metric]; ok && r.workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}
