package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRunGolden pins the whole timeline of three library scenarios on the
// hierarchical tree: one trace line per action in its canonical spec form,
// with the victim a leader-targeted verb resolved. Outside the `===` lines
// the files are the output of the commit before the verb table.
func TestRunGolden(t *testing.T) {
	for _, scenario := range []string{"kill-restart", "leader-kill", "cascade"} {
		want, err := os.ReadFile("testdata/" + scenario + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := run([]string{"-scheme", "hierarchical", "-groups", "3", "-pergroup", "4", "-scenario", scenario}, &out); code != 0 {
			t.Errorf("%s: exit code %d", scenario, code)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s printed\n%s\nwant (testdata/%s.golden)\n%s", scenario, out.Bytes(), scenario, want)
		}
	}
}

// TestListScenariosPrintsTheVocabulary: the listing ends with the spec
// language's verbs, and a spec file with an unknown verb is refused (the
// error on stderr lists them; chaos.TestEveryVerb checks that).
func TestListScenariosPrintsTheVocabulary(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list-scenarios"}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"kill-restart ", "\n  kill N ", "\n  flap N down=D up=D [count=K] ", "repeat COUNT every D [step K]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list-scenarios lacks %q\n%s", want, out.String())
		}
	}
	spec := t.TempDir() + "/bad.spec"
	if err := os.WriteFile(spec, []byte("@1s explode 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-scenario", "@" + spec}, &out); code != 2 || out.Len() != 0 {
		t.Errorf("unknown verb: exit code %d, stdout %q; want 2 and nothing", code, out.String())
	}
	if code := run([]string{"-groups", "0", "-list-scenarios"}, &out); code != 2 {
		t.Errorf("-groups 0: exit code %d, want 2", code)
	}
	if code := run([]string{"-groups", "2", "-pergroup", "3", "-kill", "6"}, &out); code != 2 || out.Len() != 0 {
		t.Errorf("-kill 6 on nodes 0..5: exit code %d, stdout %q; want 2 and nothing", code, out.String())
	}
}

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
		for _, want := range []string{"scheme=" + scheme.String() + " ", "=== kill 5 ===", "invariant audit:", "completeness"} {
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
