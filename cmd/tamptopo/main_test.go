package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunGolden pins the emerged tree — IsLeader, GroupMembers and Levels of
// every node — for two topologies. The golden files are the output of the
// commit before the per-level mate table replaced core's member maps, so
// they prove those accessors still answer in the same order.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/figure4.golden", []string{"-topo", "figure4"}},
		{"testdata/clustered-3x5.golden", []string{"-topo", "clustered", "-groups", "3", "-pergroup", "5"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := run(tc.args, &out); code != 0 {
			t.Errorf("%v: exit code %d", tc.args, code)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v printed\n%s\nwant (%s)\n%s", tc.args, out.Bytes(), tc.golden, want)
		}
	}
}

func TestRunRejectsUnknownTopology(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-topo", "moebius"}, &out); code != 2 || out.Len() != 0 {
		t.Errorf("unknown topology: exit code %d, stdout %q; want 2 and nothing", code, out.String())
	}
}
