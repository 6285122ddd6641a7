package chaos

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestParseSpecFull parses every directive beside a few steps and pins how
// tokens land in arguments; TestEveryVerb covers the vocabulary row by row.
func TestParseSpecFull(t *testing.T) {
	text := `
# a kitchen-sink scenario
scenario everything
desc all directives at once
expect nothing in particular
multidc
proxies 3
@20s kill 5
@33s link-fault swA core jitter=0.2 loss=0.5
@35s flap 7 up=4s down=2s count=5
@36s flap 7 down=2s up=4s
@44s gray-node 3 1500ms
@45s link-fault sw1 core loss=0.01 jitter=0.02 dup=0.03 corrupt=0.1 truncate=0.2 replay=0.3 stale=0.4
`
	s, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "everything" || s.Description != "all directives at once" || s.Expect != "nothing in particular" ||
		!s.MultiDC || s.ProxiesPerDC != 3 {
		t.Fatalf("directives parsed as %+v", s)
	}
	want := []string{
		"kill 5",
		"link-fault swA core loss=0.5 jitter=0.2 dup=0",
		"flap 7 down=2s up=4s count=5",
		"flap 7 down=2s up=4s count=1",
		"gray-node 3 1.5s",
		"link-fault sw1 core loss=0.01 jitter=0.02 dup=0.03 corrupt=0.1 truncate=0.2 replay=0.3 stale=0.4",
	}
	if len(s.Steps) != len(want) {
		t.Fatalf("got %d steps, want %d", len(s.Steps), len(want))
	}
	for i, st := range s.Steps {
		if got := st.Act.String(); got != want[i] {
			t.Errorf("step %d renders %q, want %q", i, got, want[i])
		}
	}
	// Every profile key reaches its own LinkProfile field.
	full := netsim.LinkProfile{Loss: 0.01, Jitter: 0.02, Dup: 0.03, Corrupt: 0.1, Truncate: 0.2, Replay: 0.3, Stale: 0.4}
	if got := profileOf(s.Steps[5].Act.args[2:]); got != full {
		t.Fatalf("link-fault profile = %+v, want %+v", got, full)
	}
	// End spans the flap cycles: 35s + 5*(2s+4s).
	if want := 65 * time.Second; s.End() != want {
		t.Fatalf("End() = %v, want %v", s.End(), want)
	}
}

// TestLibraryGolden compares the canonical rendering of every library
// scenario with the bytes the per-verb String methods produced before the
// verb table replaced them.
func TestLibraryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/library-3x8.spec")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, sc := range Library(3, 8) {
		got.WriteString(sc.Spec())
	}
	if got.String() != string(want) {
		t.Fatalf("Library(3,8) renders\n%s\nwant (testdata/library-3x8.spec)\n%s", got.String(), want)
	}
}

// legal is the smallest value of each kind that Install accepts on the
// cells TestEveryVerb uses, as a spec token for the verb's i'th parameter
// (two devices in a row are the ends of a link); illegal lists tokens just
// outside the kind's range, at parse or at Install.
func legal(k kind, i int) string {
	switch k {
	case device:
		return []string{"sw0", "core"}[i]
	case count1:
		return "1"
	case dur:
		return "1ns"
	case dur0:
		return "0s"
	}
	return "0"
}

func illegal(k kind, env *Env) []string {
	switch k {
	case node:
		return []string{"-1", strconv.Itoa(len(env.Nodes))}
	case group:
		return []string{"-1", strconv.Itoa(len(env.Groups()))}
	case dc:
		return []string{"-1", strconv.Itoa(env.Top.NumDataCenters())}
	case count0:
		return []string{"-1", "x"}
	case count1:
		return []string{"0"}
	case device:
		return []string{"nope"}
	case prob:
		return []string{"-0.1", "1", "NaN"}
	case dur:
		return []string{"0s", "-1s"}
	case dur0:
		return []string{"-1ns", "soon"}
	}
	panic("kind without out-of-range tokens")
}

// TestEveryVerb ranges over the verb table: the smallest legal action of
// each row installs, renders to a form that reparses to an equal action,
// and applies without panicking; each argument pushed just out of its kind's
// range is rejected at parse or at Install with nothing scheduled.
func TestEveryVerb(t *testing.T) {
	for i := range verbs {
		v := &verbs[i]
		top := topology.Clustered(3, 4)
		if v.wan {
			top = topology.MultiDC(2, 3, 4)
		}
		env, _ := newFakeEnv(t, top)
		line := func(override int, tok string) string {
			toks := []string{"@1s", v.name}
			for pi, p := range v.params {
				val := legal(p.kind, pi)
				if v.distinct {
					val = strconv.Itoa(pi)
				}
				if pi == override {
					val = tok
				}
				if p.key != "" {
					val = p.key + "=" + val
				}
				toks = append(toks, val)
			}
			return strings.Join(toks, " ")
		}
		sc, err := ParseSpec(line(-1, ""))
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		act := sc.Steps[0].Act
		re, err := ParseSpec("@1s " + act.String())
		if err != nil || !reflect.DeepEqual(re.Steps[0].Act, act) {
			t.Errorf("%s: %q reparses to %+v (%v), want %+v", v.name, act, re, err, act)
		}
		if !strings.HasPrefix(v.usage(), v.name) || v.doc == "" || !strings.Contains(Usage(), v.usage()) {
			t.Errorf("%s: usage %q, doc %q not in Usage()", v.name, v.usage(), v.doc)
		}
		for pi, p := range v.params {
			for _, tok := range illegal(p.kind, env) {
				bad, err := ParseSpec(line(pi, tok))
				if err == nil {
					err = bad.Install(env)
				}
				if err == nil {
					t.Errorf("%s: %s=%s accepted", v.name, p.name, tok)
				}
			}
		}
		if v.link {
			if bad, err := ParseSpec(line(1, "sw1")); err != nil || bad.Install(env) == nil {
				t.Errorf("%s: a link the topology lacks accepted (parse: %v)", v.name, err)
			}
		}
		if v.distinct {
			if bad, err := ParseSpec(line(1, "0")); err != nil || bad.Install(env) == nil {
				t.Errorf("%s: equal arguments accepted (parse: %v)", v.name, err)
			}
		}
		if _, ok := engOf(env).NextEventAt(); ok {
			t.Errorf("%s: rejected actions left events scheduled", v.name)
		}
		if err := sc.Install(env); err != nil {
			t.Errorf("%s: Install(%q): %v", v.name, act, err)
			continue
		}
		var traced []string
		env.Trace = func(_ time.Duration, msg string) { traced = append(traced, msg) }
		engOf(env).Run(time.Minute)
		if len(traced) != 1 || !strings.HasPrefix(traced[0], act.String()) {
			t.Errorf("%s: traced %q, want one line starting %q", v.name, traced, act)
		}
	}
	// A WAN verb has nothing to act on in a single data center.
	env, _ := newFakeEnv(t, topology.Clustered(3, 4))
	if err := (&Scenario{Steps: Steps("@1s fail-wan")}).Install(env); err == nil {
		t.Error("fail-wan installed on a topology without WAN links")
	}
	if _, err := ParseSpec("@1s nonsense 1"); err == nil || !strings.Contains(err.Error(), "kill-proxy-leader") {
		t.Errorf("unknown verb error does not list the vocabulary: %v", err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, sc := range Library(3, 8) {
		re, err := ParseSpec(sc.Spec())
		if err != nil {
			t.Fatalf("%s: reparse: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(re, sc) {
			t.Fatalf("%s: round trip mismatch:\n%+v\n%+v", sc.Name, re, sc)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"@20s kill x",
		"@20s kill -1",
		"@-5s kill 1",
		"@20s loss 1.0",
		"@20s loss NaN",
		"@20s jitter 2",
		"@20s loss-ramp 0 0.5 0s 5",
		"@20s loss-ramp 0 0.5 10s 0",
		"@20s flap 1 down=0s up=2s",
		"@20s flap 1 down=2s",
		"@20s flap 1 =2 down=2s up=2s",
		"@20s wan-fault loss=1.5",
		"@20s corrupt-link sw1 core",
		"@20s corrupt-link sw1 core 1.5",
		"@20s truncate-link sw1 core NaN",
		"@20s replay-link sw1",
		"@20s asym-loss sw1 core -0.1",
		"@20s gray-node 1",
		"@20s gray-node -1 2s",
		"@20s gray-node 1 -2s",
		"@20s gray-node 1 bogus",
		"@20s link-fault sw1 core corrupt=2",
		"@20s wan-fault stale=-1",
		"@20s nonsense 1",
		"@20s",
		"bogus directive",
		"@xyz kill 1",
		"multidc yes",
		"@20s restart-down 1",
		"@20s fail-wan now",
		"@20s kill-proxy-leader",
		"@20s repeat 3 every 5s",
		"@20s repeat 0 every 5s {\n@0s kill 1\n}",
		"@20s repeat 3 every 0s {\n@0s kill 1\n}",
		"@20s repeat 3 every 5s step 0 {\n@0s kill 1\n}",
		"@20s repeat 3 every 5s {\n}",
		"@20s repeat 3 every 5s {\n@0s kill 1\n",
		"@20s repeat 3 every 5s {\nkill 1\n}",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid input", in)
		}
	}
}

func TestParseSpecRepeat(t *testing.T) {
	text := `scenario rolling
@20s repeat 3 every 5s step 8 {
	@0s kill 1     # victim shifts by 8 each iteration
	@3s restart 1
}
@60s repeat 2 every 10s {
	@0s repeat 2 every 2s {
		@0s kill 5
	}
	@5s restart-down
}
`
	s, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(s.Steps))
	}
	r := s.Steps[0].Act.rep
	if r.count != 3 || r.every != 5*time.Second || r.stride != 8 || len(r.body) != 2 {
		t.Fatalf("outer repeat parsed as %+v", r)
	}
	if k := r.body[0].Act.String(); k != "kill 1" {
		t.Fatalf("repeat body parsed as %+v", r.body)
	}
	nested := s.Steps[1].Act.rep
	inner := nested.body[0].Act.rep
	if inner.count != 2 || inner.every != 2*time.Second || len(inner.body) != 1 {
		t.Fatalf("nested repeat parsed as %+v", inner)
	}
	// span: outer repeat 0 ends at 20s + 2*5s + 3s = 33s; step 1 ends at
	// 60s + 1*10s + max(0+1*2s, 5s) = 75s.
	if want := 75 * time.Second; s.End() != want {
		t.Fatalf("End() = %v, want %v", s.End(), want)
	}
	// Round trip through the canonical form.
	re, err := ParseSpec(s.Spec())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.Spec())
	}
	if !reflect.DeepEqual(re, s) {
		t.Fatalf("repeat round trip mismatch:\n%s\n%+v\n%+v", s.Spec(), re, s)
	}
}

func TestRepeatApplyStride(t *testing.T) {
	// On the 3x8 clustered topology, a strided repeat must kill a different
	// victim each iteration — the cascade pattern.
	sc := &Scenario{Name: "t", Steps: Steps("@1s repeat 3 every 1s step 8 {\n@0s kill 1\n@0s gray-node 2 1s\n}")}
	env, _ := newFakeEnv(t, topology.Clustered(3, 8))
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	engOf(env).Run(10 * time.Second)
	for _, want := range []int{1, 9, 17} {
		if env.Nodes[want].Running() {
			t.Errorf("node %d still running; strided kill missed it", want)
		}
	}
	// The stride moves every node argument, not only kill's.
	for h := 0; h < 24; h++ {
		if got, want := env.Net.Endpoint(topology.HostID(h)).GrayLag() != 0, h%8 == 2; got != want {
			t.Errorf("node %d limping = %v, want %v", h, got, want)
		}
	}
	// A stride pushing past the cluster must fail validation, whichever
	// verb carries the node.
	for _, body := range []string{"kill 1", "gray-node 1 1s"} {
		bad := &Scenario{Steps: Steps("@0s repeat 4 every 1s step 8 {\n@0s %s\n}", body)}
		env2, _ := newFakeEnv(t, topology.Clustered(3, 8))
		if err := bad.Install(env2); err == nil {
			t.Fatalf("out-of-range strided %s passed validation", body)
		}
	}
}

func TestParseSpecCommentsAndBlanks(t *testing.T) {
	s, err := ParseSpec("# lead\n\n  @20s kill 3 # trailing\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != 1 || s.Steps[0].Act.String() != "kill 3" {
		t.Fatalf("got %+v", s)
	}
}

func TestMultiDCCount(t *testing.T) {
	s, err := ParseSpec("multidc 3")
	if err != nil {
		t.Fatal(err)
	}
	if !s.MultiDC || s.DCs != 3 || s.NumDCs() != 3 {
		t.Fatalf("multidc 3 parsed as MultiDC=%v DCs=%d", s.MultiDC, s.DCs)
	}
	if got := s.Spec(); got != "multidc 3\n" {
		t.Fatalf("Spec() = %q", got)
	}
	// Bare multidc keeps the 2-DC default, and the default stays implicit in
	// the rendered spec so pre-existing scenario files stay byte-stable.
	s, err = ParseSpec("multidc")
	if err != nil {
		t.Fatal(err)
	}
	if s.DCs != 0 || s.NumDCs() != 2 || s.Spec() != "multidc\n" {
		t.Fatalf("bare multidc: DCs=%d NumDCs=%d spec=%q", s.DCs, s.NumDCs(), s.Spec())
	}
	for _, bad := range []string{"multidc 1", "multidc 0", "multidc -2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid DC count", bad)
		}
	}
}

func TestLibraryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names(3, 8) {
		if seen[name] {
			t.Fatalf("duplicate scenario name %q", name)
		}
		seen[name] = true
	}
	if !seen["wan-degrade"] || !seen["steady"] {
		t.Fatalf("library missing expected scenarios: %v", Names(3, 8))
	}
	if _, err := Find("no-such", 3, 8); err == nil || !strings.Contains(err.Error(), "no scenario") {
		t.Fatalf("Find on unknown name: %v", err)
	}
}
