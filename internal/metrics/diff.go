package metrics

// The cross-PR comparator behind `tampbench -diff old.json new.json`: load
// two BENCH_*.json files and report regressions — runs that disappeared,
// invariant verdicts that flipped to FAIL, packet counts that blew up, and
// (optionally) wall-time growth. The comparison keys on RunReport.Key, so
// it tolerates reordering and added runs; only losses and degradations
// count.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// DiffOptions tune what counts as a regression.
type DiffOptions struct {
	// WallFactor flags a run whose wall time grew by more than this factor
	// (e.g. 1.5 = +50%). Zero disables wall-time comparison — CI machines
	// have too much wall-clock noise for a hard gate.
	WallFactor float64
}

// DefaultDiffOptions: wall time gated at +50%.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{WallFactor: 1.5}
}

// packetFactor flags a run whose delivered-packet count grew by more than
// this factor; packets are deterministic, so +25% is a real
// protocol-efficiency gate, not a noise threshold.
const packetFactor = 1.25

// Regression is one comparator finding.
type Regression struct {
	Key  string // run key, or "summary" for sweep-level findings
	What string // human-readable description of what regressed
}

// ReadBenchJSON loads a BENCH_*.json file.
func ReadBenchJSON(path string) (BenchJSON, error) {
	var b BenchJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// chaosVerdict is the slice of harness.ChaosResult the comparator needs;
// re-decoding through JSON keeps metrics free of a harness dependency.
type chaosVerdict struct {
	Scenario          string `json:"scenario"`
	Scheme            string `json:"scheme"`
	Pass              bool   `json:"pass"`
	SpuriousEvictions uint64 `json:"spurious_evictions"`
	// Converged is the adaptive-hierarchy convergence verdict; cells
	// written before the field existed decode to false and stay inert.
	Converged bool `json:"converged"`
}

func chaosVerdicts(results any) map[string]chaosVerdict {
	if results == nil {
		return nil
	}
	data, err := json.Marshal(results)
	if err != nil {
		return nil
	}
	var cells []chaosVerdict
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil
	}
	out := make(map[string]chaosVerdict, len(cells))
	for _, c := range cells {
		out[c.Scenario+"/"+c.Scheme] = c
	}
	return out
}

// trafficCell is the slice of harness.TrafficResult the comparator needs,
// decoded the same way as chaos verdicts so metrics stays harness-free.
type trafficCell struct {
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	Traffic  struct {
		Requests uint64 `json:"requests"`
		OK       uint64 `json:"ok"`
	} `json:"traffic"`
}

// trafficOutcomes maps cell key -> "every request succeeded". Cells with no
// traffic payload (chaos results, scale runs) decode to zero requests and are
// dropped.
func trafficOutcomes(results any) map[string]bool {
	if results == nil {
		return nil
	}
	data, err := json.Marshal(results)
	if err != nil {
		return nil
	}
	var cells []trafficCell
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil
	}
	out := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Traffic.Requests == 0 {
			continue
		}
		out[c.Scenario+"/"+c.Scheme] = c.Traffic.OK == c.Traffic.Requests
	}
	return out
}

// CompareBench diffs two bench files, old first. Findings come back sorted
// by run key (summary findings last) so the rendered table is deterministic.
func CompareBench(oldB, newB BenchJSON, o DiffOptions) []Regression {
	var regs []Regression
	newRuns := make(map[string]RunReport, len(newB.Runs))
	for _, r := range newB.Runs {
		newRuns[r.Key] = r
	}
	for _, or := range oldB.Runs {
		nr, ok := newRuns[or.Key]
		if !ok {
			regs = append(regs, Regression{Key: or.Key, What: "run disappeared"})
			continue
		}
		if or.PktsDelivered > 0 && float64(nr.PktsDelivered) > float64(or.PktsDelivered)*packetFactor {
			regs = append(regs, Regression{Key: or.Key, What: fmt.Sprintf(
				"packets delivered %d -> %d (> %gx)", or.PktsDelivered, nr.PktsDelivered, packetFactor)})
		}
		if or.TotalViolations() == 0 && nr.TotalViolations() > 0 {
			regs = append(regs, Regression{Key: or.Key, What: fmt.Sprintf(
				"invariant violations 0 -> %d", nr.TotalViolations())})
		}
	}
	oldCells := chaosVerdicts(oldB.Results)
	newCells := chaosVerdicts(newB.Results)
	for cell, oc := range oldCells {
		nc, ok := newCells[cell]
		if !ok {
			continue
		}
		if oc.Pass && !nc.Pass {
			regs = append(regs, Regression{Key: cell, What: "verdict PASS -> FAIL"})
		}
		// A previously flap-clean cell starting to evict healthy members is
		// a stability regression even while every invariant still passes
		// (flap-freedom only fires on the second eviction of a pair).
		if oc.SpuriousEvictions == 0 && nc.SpuriousEvictions > 0 {
			regs = append(regs, Regression{Key: cell, What: fmt.Sprintf(
				"spurious evictions 0 -> %d", nc.SpuriousEvictions)})
		}
		// An adaptive cell that used to re-converge after the last fault and
		// no longer does is a robustness regression even if no invariant
		// fires inside the run window.
		if oc.Converged && !nc.Converged {
			regs = append(regs, Regression{Key: cell, What: "re-formation converged -> not converged"})
		}
	}
	oldTraffic := trafficOutcomes(oldB.Results)
	newTraffic := trafficOutcomes(newB.Results)
	for cell, clean := range oldTraffic {
		if nc, ok := newTraffic[cell]; clean && ok && !nc {
			regs = append(regs, Regression{Key: cell, What: "traffic clean -> user-visible failures"})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Key != regs[j].Key {
			return regs[i].Key < regs[j].Key
		}
		return regs[i].What < regs[j].What
	})
	if o.WallFactor > 0 && oldB.Summary.Wall > 0 &&
		float64(newB.Summary.Wall) > float64(oldB.Summary.Wall)*o.WallFactor {
		regs = append(regs, Regression{Key: "summary", What: fmt.Sprintf(
			"total wall time %v -> %v (> %gx)",
			oldB.Summary.Wall.Round(time.Millisecond), newB.Summary.Wall.Round(time.Millisecond), o.WallFactor)})
	}
	return regs
}

// RenderRegressions renders the comparator findings as an aligned table.
func RenderRegressions(regs []Regression) string {
	if len(regs) == 0 {
		return "no regressions\n"
	}
	width := len("run")
	for _, r := range regs {
		if len(r.Key) > width {
			width = len(r.Key)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  regression\n", width, "run")
	for _, r := range regs {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r.Key, r.What)
	}
	return b.String()
}
