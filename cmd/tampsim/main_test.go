package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRunEveryScheme drives one short library scenario under every row of
// the scheme table, by the name the usage text advertises: each run must
// exit 0 (complete views, clean audit) and print its scheme line and the
// audit report, and every core-based scheme — the federated one included —
// must print its protocol totals.
func TestRunEveryScheme(t *testing.T) {
	for _, name := range harness.SchemeNames() {
		scheme, err := harness.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		code := run([]string{"-scheme", name, "-scenario", "kill-restart", "-groups", "2", "-pergroup", "4"}, &out)
		if code != 0 {
			t.Errorf("-scheme %s: exit code %d\n%s", name, code, out.String())
		}
		for _, want := range []string{"scheme=" + scheme.String() + " ", "=== kill node", "invariant audit:", "completeness"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-scheme %s: output lacks %q\n%s", name, want, out.String())
			}
		}
		core, printed := strings.HasPrefix(name, "hierarchical"), strings.Contains(out.String(), "protocol stats")
		if printed != core {
			t.Errorf("-scheme %s: protocol totals printed=%v, want %v", name, printed, core)
		}
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-scheme", "bogus"}, &out); code != 2 || out.Len() != 0 {
		t.Errorf("unknown scheme: exit code %d, stdout %q; want 2 and nothing", code, out.String())
	}
}
