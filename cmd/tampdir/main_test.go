package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSession scripts an operator's session against the served
// directory: a lookup finds both Cache hosts, killing one and letting the
// detection window pass removes its match from the same lookup.
func TestRunSession(t *testing.T) {
	var out bytes.Buffer
	in := strings.NewReader("Cache 0-3\nkill 1\nCache 0-3\nquit\nCache 0-3\n")
	if code := run([]string{"-groups", "2", "-pergroup", "4"}, in, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	answers := strings.Split(out.String(), "\n> ")
	if len(answers) != 5 || answers[4] != "" { // banner, three answers, nothing after quit
		t.Fatalf("session printed %d prompts, want 4 and nothing after quit\n%s", len(answers)-1, out.String())
	}
	if !strings.Contains(answers[0], "cluster of 8 nodes converged") {
		t.Errorf("banner: %q", answers[0])
	}
	if !strings.Contains(answers[1], "node n1 ") || !strings.Contains(answers[1], "11211") {
		t.Errorf("first lookup lacks node 1's Cache: %q", answers[1])
	}
	if !strings.Contains(answers[2], "killed node 1") {
		t.Errorf("kill: %q", answers[2])
	}
	if answers[3] != "(no matches)" {
		t.Errorf("node 1's match survived its death: %q", answers[3])
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{{"-bogus"}, {"-groups", "1"}, {"-pergroup", "2"}} {
		if code := run(args, strings.NewReader(""), &out); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit code %d, stdout %q; want 2 and nothing", args, code, out.String())
		}
	}
}
