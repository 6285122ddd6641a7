package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/perf"
)

// A toy run through the command prints the contract's result object as the
// last line of standard output and exits 0.
func TestRunPrintsResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "flat-alltoall", "--seed", "3", "--seconds", "4", "--trace", "0", "--toy", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(obj) != 4 {
		t.Errorf("result object has keys %v, want exactly correct, attempted, failed, metrics", obj)
	}
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil || !l.Correct || l.Attempted < 1 || l.Failed != 0 {
		t.Errorf("result %+v, err %v", l, err)
	}
	for _, e := range perf.EndToEnd {
		if m, ok := l.Metrics[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("metric %s: %+v (present %v)", e.Name, m, ok)
		}
	}
	if !strings.Contains(stdout.String(), "sim_digest ") || !strings.Contains(stdout.String(), "# machine go=") {
		t.Errorf("output lacks the digest or the machine facts:\n%s", stdout.String())
	}
}

// A failed correctness check is a non-zero exit and no result line.
func TestFailedCheckExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := report(perf.Result{Workload: "tree-churn", Correct: false, Attempted: 10, Failed: 1}, &stdout, &stderr)
	if code == 0 {
		t.Error("exit 0 for a run whose correctness check failed")
	}
	if strings.Contains(stdout.String(), `{"correct"`) {
		t.Errorf("a failed run printed a result line:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"--workload", "nope"}, {"--seconds", "0"}, {"--bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// The A/A verdict accepts two agreeing sets and rejects a set whose median
// moved past the bound or whose same-seed simulation differs.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(contract, `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},{"name":"sim_x","unit":"ms","better":"lower","bound":0.1}]}`)
	set := func(scale float64, digest string) string {
		var b strings.Builder
		for seed, v := range []float64{10, 10.1, 10.2, 9.9, 9.8} {
			l, _ := json.Marshal(line{Correct: true, Attempted: 1, Metrics: map[string]metricVal{
				"wall_s": {v * scale, "s"}, "sim_x": {float64(100 + seed), "ms"},
			}})
			b.WriteString("w " + string(rune('1'+seed)) + " " + digest + " " + string(l) + "\n")
		}
		return b.String()
	}
	a, same, slow, other := filepath.Join(dir, "a"), filepath.Join(dir, "same"), filepath.Join(dir, "slow"), filepath.Join(dir, "other")
	write(a, set(1, "d1"))
	write(same, set(1.02, "d1"))
	write(slow, set(1.3, "d1"))
	write(other, set(1, "d2"))
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {other, 1}} {
		var stdout, stderr bytes.Buffer
		if code := compareSets(a+","+c.b, contract, &stdout, &stderr); code != c.want {
			t.Errorf("compare with %s: exit %d, want %d\n%s%s", filepath.Base(c.b), code, c.want, stdout.String(), stderr.String())
		}
	}
}
