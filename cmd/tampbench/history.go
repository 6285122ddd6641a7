package main

// `tampbench -history` walks git for every committed BENCH_*.json and
// prints each figure's wall/packet trajectory across commits, annotated
// with the -diff comparator's findings between consecutive snapshots. It
// reads git objects only (git log + git show) — nothing is checked out and
// the working tree's uncommitted BENCH files are not consulted.

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// runHistory prints the committed trajectory of every BENCH_*.json file,
// or only the figures named in figs.
func runHistory(figs []string, wallFactor float64, stdout, stderr io.Writer) int {
	files, err := benchHistoryFiles()
	if err != nil {
		fmt.Fprintln(stderr, "tampbench: -history:", err)
		return 1
	}
	want := map[string]bool{}
	for _, f := range figs {
		want[f] = true
	}
	o := metrics.DefaultDiffOptions()
	o.WallFactor = wallFactor
	shown := 0
	for _, file := range files {
		fig := strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json")
		if len(want) > 0 && !want[fig] {
			continue
		}
		snaps, err := benchSnapshots(file)
		if err != nil {
			fmt.Fprintf(stderr, "tampbench: -history: %s: %v\n", file, err)
			return 1
		}
		if len(snaps) == 0 {
			continue
		}
		if shown > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, metrics.RenderHistory(fig, snaps, o))
		for _, f := range harness.Figures() {
			if f.Name == fig && f.History != nil {
				fmt.Fprint(stdout, f.History(snaps[len(snaps)-1].Bench.Runs))
			}
		}
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(stderr, "tampbench: -history: no committed BENCH_*.json matches")
		return 1
	}
	return 0
}

// benchHistoryFiles lists every BENCH_*.json path that ever appeared in a
// commit on the current branch, in first-appearance order (oldest first).
func benchHistoryFiles() ([]string, error) {
	out, err := gitOut("log", "--reverse", "--format=", "--name-only", "--", "BENCH_*.json")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var files []string
	for _, line := range strings.Split(out, "\n") {
		if line = strings.TrimSpace(line); line == "" || seen[line] {
			continue
		}
		seen[line] = true
		files = append(files, line)
	}
	return files, nil
}

// benchSnapshots loads every committed revision of one BENCH file, oldest
// first. Commits where the file is absent (e.g. its deletion) are skipped.
func benchSnapshots(file string) ([]metrics.HistorySnapshot, error) {
	out, err := gitOut("log", "--reverse", "--format=%h%x09%cs%x09%s", "--", file)
	if err != nil {
		return nil, err
	}
	var snaps []metrics.HistorySnapshot
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		hash, rest, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		date, subject, _ := strings.Cut(rest, "\t")
		blob, err := gitOut("show", hash+":"+file)
		if err != nil {
			continue // file not present at this commit
		}
		var b metrics.BenchJSON
		if err := json.Unmarshal([]byte(blob), &b); err != nil {
			return nil, fmt.Errorf("%s at %s: %w", file, hash, err)
		}
		snaps = append(snaps, metrics.HistorySnapshot{
			Commit: hash, Date: date, Subject: subject, Bench: b,
		})
	}
	return snaps, nil
}

func gitOut(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return "", fmt.Errorf("git %s: %s", args[0], strings.TrimSpace(string(ee.Stderr)))
		}
		return "", fmt.Errorf("git %s: %w", args[0], err)
	}
	return string(out), nil
}
