package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/raceflag"
)

// golden lists the deterministic curve figures. Each testdata/fig-<name>.golden
// is the stdout of `tampbench -fig <name>` at the commit before the figure
// table existed, so they prove the table's defaults, the sweep helper's run
// keys and the ablations' clusters are the ones the hand-written code had.
// Figure 2 is wall-measured; the matrices and scale runs are pinned by their
// committed BENCH files instead (they write into the working directory).
var golden = []string{"11", "12", "13", "14", "4x", "4b", "abl-piggyback", "abl-group",
	"abl-maxloss", "abl-fanout", "accuracy", "breakdown", "detect-dist"}

func TestRunGolden(t *testing.T) {
	for _, name := range golden {
		want, err := os.ReadFile("testdata/fig-" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			var out, errs bytes.Buffer
			if code := run([]string{"-fig", name, "-workers", workers}, &out, &errs); code != 0 {
				t.Errorf("-fig %s -workers %s: exit code %d, stderr %q", name, workers, code, errs.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("-fig %s -workers %s printed\n%s\nwant\n%s", name, workers, out.Bytes(), want)
			}
		}
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-fig", "15"}, &out, &errs); code != 2 || out.Len() != 0 {
		t.Errorf("unknown figure: exit code %d, stdout %q; want 2 and nothing", code, out.String())
	}
	_, list, _ := strings.Cut(strings.TrimSuffix(errs.String(), ")\n"), "want one of ")
	if want := append(harness.FigureNames(), allFigures); !slices.Equal(strings.Split(list, ", "), want) {
		t.Errorf("unknown figure: stderr lists %q, want exactly %q", list, want)
	}
}

// TestRunAllFollowsTheTable runs -fig all for real: every All row, in table
// order, nothing else. The matrices write their BENCH files into the working
// directory, so it runs from a scratch one.
func TestRunAllFollowsTheTable(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("-fig all regenerates every figure, the two matrices included")
	}
	var want []string
	for _, f := range harness.Figures() {
		if f.All {
			want = append(want, f.Name)
		}
	}
	home, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(home)
	var out, errs bytes.Buffer
	if code := run([]string{"-fig", allFigures}, &out, &errs); code != 0 {
		t.Fatalf("-fig all: exit code %d, stderr %q", code, errs.String())
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^\((\S+) regenerated in `).FindAllStringSubmatch(errs.String(), -1) {
		got = append(got, m[1])
	}
	if !slices.Equal(got, want) {
		t.Errorf("-fig all regenerated %q, want the table's All rows %q", got, want)
	}
}

// TestReadmeAdvertisesTheTable keeps README.md and the figure table in step:
// every `-fig <name>` the README shows must be a row (or "all"), and every
// row must be shown at least once.
func TestReadmeAdvertisesTheTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := harness.FigureNames()
	shown := map[string]bool{}
	for _, m := range regexp.MustCompile("-fig ([0-9a-z][0-9a-z-]*)").FindAllStringSubmatch(string(readme), -1) {
		shown[m[1]] = true
		if m[1] != allFigures && !slices.Contains(names, m[1]) {
			t.Errorf("README.md advertises -fig %s, which is not in the figure table", m[1])
		}
	}
	for _, name := range names {
		if !shown[name] {
			t.Errorf("README.md never shows -fig %s", name)
		}
	}
}
