package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The text scenario spec is what cmd/tampsim accepts via -scenario @file
// and what Scenario.Spec renders. One directive or step per line:
//
//	# comment
//	scenario partition-heal
//	desc cut a group switch uplink, heal it later
//	expect gossip re-merges; multicast schemes cannot cross the cut
//	multidc [K]                   # request a multi-data-center topology (K DCs, default 2)
//	proxies K                     # per-DC membership-proxy group size (default 2)
//	@20s fail-link sw1 core
//	@60s repair-link sw1 core
//
// Steps are "@OFFSET VERB ARGS..." with OFFSET a Go duration. The verbs are
// the rows of the table in verbs.go; Usage() prints them with their
// parameters (tampsim -list-scenarios shows it).
//
// A repeat block replays an indented sub-timeline COUNT times, EVERY apart,
// optionally shifting every node argument in the body by STRIDE more each
// iteration ("step"):
//
//	@20s repeat 3 every 5s step 8 {
//		@0s kill 1
//		@3s restart 1
//	}
//
// Body offsets are relative to the iteration's start; blocks nest.
//
// Probabilities must lie in [0,1); durations are Go duration literals.
// Node, group, data-center and device arguments are range-checked later, at
// Scenario.Install, against the concrete cluster.

// ParseSpec parses the text scenario format.
func ParseSpec(text string) (*Scenario, error) {
	s := &Scenario{}
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		ln := i + 1
		line := cleanLine(lines[i])
		if line == "" {
			continue
		}
		word, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var err error
		switch {
		case word == "scenario":
			if rest == "" {
				err = fmt.Errorf("scenario needs a name")
			}
			s.Name = rest
		case word == "desc":
			s.Description = rest
		case word == "expect":
			s.Expect = rest
		case word == "multidc":
			s.MultiDC = true
			if rest != "" {
				k, convErr := strconv.Atoi(rest)
				if convErr != nil || k < 2 {
					err = fmt.Errorf("multidc count %q must be an integer >= 2", rest)
				} else {
					s.DCs = k
				}
			}
		case word == "proxies":
			k, convErr := strconv.Atoi(rest)
			if convErr != nil || k < 1 {
				err = fmt.Errorf("proxies count %q must be an integer >= 1", rest)
			} else {
				s.ProxiesPerDC = k
			}
		case strings.HasPrefix(word, "@"):
			var st Step
			st, i, err = parseStep(word[1:], rest, lines, i)
			if err == nil {
				s.Steps = append(s.Steps, st)
			}
		default:
			err = fmt.Errorf("unknown directive %q", word)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: line %d: %w", ln+1, err)
		}
	}
	return s, nil
}

// cleanLine strips a trailing comment and surrounding whitespace.
func cleanLine(raw string) string {
	if i := strings.IndexByte(raw, '#'); i >= 0 {
		raw = raw[:i]
	}
	return strings.TrimSpace(raw)
}

// Spec renders the scenario in the canonical text format;
// ParseSpec(s.Spec()) reproduces s.
func (s *Scenario) Spec() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", s.Name)
	}
	if s.Description != "" {
		fmt.Fprintf(&b, "desc %s\n", s.Description)
	}
	if s.Expect != "" {
		fmt.Fprintf(&b, "expect %s\n", s.Expect)
	}
	if s.MultiDC {
		if s.DCs != 0 {
			fmt.Fprintf(&b, "multidc %d\n", s.DCs)
		} else {
			b.WriteString("multidc\n")
		}
	}
	if s.ProxiesPerDC != 0 {
		fmt.Fprintf(&b, "proxies %d\n", s.ProxiesPerDC)
	}
	for _, st := range s.Steps {
		fmt.Fprintf(&b, "@%v %s\n", st.At, st.Act)
	}
	return b.String()
}

// parseStep parses one "@OFFSET VERB ARGS" step starting at lines[i]; a
// repeat block consumes further lines up to its closing brace. It returns
// the index of the last line consumed.
func parseStep(offset, rest string, lines []string, i int) (Step, int, error) {
	at, err := time.ParseDuration(offset)
	if err != nil {
		return Step{}, i, fmt.Errorf("bad offset %q: %v", offset, err)
	}
	if at < 0 {
		return Step{}, i, fmt.Errorf("negative offset %q", offset)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Step{}, i, fmt.Errorf("offset @%s has no action", offset)
	}
	if fields[0] == "repeat" {
		act, next, err := parseRepeat(fields[1:], lines, i)
		if err != nil {
			return Step{}, i, err
		}
		return Step{At: at, Act: act}, next, nil
	}
	act, err := parseAction(fields[0], fields[1:])
	if err != nil {
		return Step{}, i, err
	}
	return Step{At: at, Act: act}, i, nil
}

// parseRepeat parses "repeat COUNT every D [step K] {" whose header sits on
// lines[i], then the body lines through the closing "}". Returns the index
// of the closing-brace line.
func parseRepeat(args []string, lines []string, i int) (Action, int, error) {
	if len(args) < 1 || args[len(args)-1] != "{" {
		return Action{}, i, fmt.Errorf("repeat wants COUNT every D [step K] followed by {")
	}
	args = args[:len(args)-1]
	if (len(args) != 3 && len(args) != 5) || args[1] != "every" || (len(args) == 5 && args[3] != "step") {
		return Action{}, i, fmt.Errorf("repeat wants COUNT every D [step K], got %q", strings.Join(args, " "))
	}
	count, err := count1.parse(args[0])
	if err != nil {
		return Action{}, i, fmt.Errorf("repeat count: %w", err)
	}
	every, err := dur.parse(args[2])
	if err != nil {
		return Action{}, i, fmt.Errorf("repeat interval: %w", err)
	}
	r := &repeat{count: count.n, every: every.d}
	if len(args) == 5 {
		stride, err := count1.parse(args[4])
		if err != nil {
			return Action{}, i, fmt.Errorf("repeat stride: %w", err)
		}
		r.stride = stride.n
	}
	for j := i + 1; j < len(lines); j++ {
		line := cleanLine(lines[j])
		if line == "" {
			continue
		}
		if line == "}" {
			if len(r.body) == 0 {
				return Action{}, j, fmt.Errorf("repeat body is empty")
			}
			return Action{rep: r}, j, nil
		}
		word, rest, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(word, "@") {
			return Action{}, j, fmt.Errorf("repeat body line %d: expected @OFFSET step or }, got %q", j+1, line)
		}
		st, next, err := parseStep(word[1:], strings.TrimSpace(rest), lines, j)
		if err != nil {
			return Action{}, j, fmt.Errorf("repeat body line %d: %w", j+1, err)
		}
		r.body = append(r.body, st)
		j = next
	}
	return Action{}, len(lines) - 1, fmt.Errorf("repeat block is missing its closing }")
}

// Steps builds a timeline from Go in the spec language itself — the one
// way to write an action, so the library doubles as parser coverage:
//
//	chaos.Steps("@20s kill %d\n@40s restart %d", v, v)
//
// The text is a constant of the program, so a malformed line panics.
func Steps(format string, args ...any) []Step {
	s, err := ParseSpec(fmt.Sprintf(format, args...))
	if err != nil {
		panic(err)
	}
	return s.Steps
}
