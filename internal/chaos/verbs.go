package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// What a verb is: one row of the table below. The parser, the canonical
// rendering, the Install-time range checks, a repeat block's stride and the
// trace line are all written once per argument kind in this file, so adding
// a verb is adding a row.

// kind is the type of one argument: how its token parses, which values are
// legal, and what Install checks it against on the concrete cluster.
type kind uint8

const (
	node   kind = iota // daemon index; the argument a repeat block's stride shifts
	group              // level-0 group index
	dc                 // data-center index
	count0             // integer >= 0
	count1             // integer >= 1
	device             // switch or router name
	prob               // probability in [0,1)
	dur                // duration > 0
	dur0               // duration >= 0
)

var kindNames = [...]string{
	node: "a node index", group: "a group index", dc: "a data-center index",
	count0: "a non-negative integer", count1: "a positive integer", device: "a device name",
	prob: "a probability in [0,1)", dur: "a positive duration", dur0: "a non-negative duration",
}

func (k kind) String() string { return kindNames[k] }

// arg is one argument value; its kind says which field holds it.
type arg struct {
	n int           // node, group, dc, count0, count1
	s string        // device
	f float64       // prob
	d time.Duration // dur, dur0
}

// parse reads one spec token as a value of kind k.
func (k kind) parse(s string) (a arg, err error) {
	switch k {
	case device:
		a.s = s
	case prob:
		a.f, err = strconv.ParseFloat(s, 64)
	case dur, dur0:
		a.d, err = time.ParseDuration(s)
	default:
		a.n, err = strconv.Atoi(s)
	}
	if err != nil {
		return a, fmt.Errorf("%q is not %s", s, k)
	}
	return a, k.valid(a)
}

// valid is the cluster-independent half of the range check. parse applies it
// to spec text and check applies it again at Install, so an Action assembled
// in Go never reaches the network with a NaN probability either.
func (k kind) valid(a arg) error {
	var ok bool
	switch k {
	case device:
		ok = a.s != ""
	case prob:
		ok = a.f >= 0 && a.f < 1 // false for NaN, which fuzzed specs produce
	case dur:
		ok = a.d > 0
	case dur0:
		ok = a.d >= 0
	case count1:
		ok = a.n >= 1
	default:
		ok = a.n >= 0
	}
	if !ok {
		return fmt.Errorf("%s is not %s", k.str(a), k)
	}
	return nil
}

// check validates a against the concrete cluster.
func (k kind) check(env *Env, a arg) error {
	if err := k.valid(a); err != nil {
		return err
	}
	var limit int
	switch k {
	case node:
		limit = len(env.Nodes)
	case group:
		limit = len(env.Groups())
	case dc:
		limit = env.Top.NumDataCenters()
	case device:
		if _, ok := env.findDevice(a.s); !ok {
			return fmt.Errorf("no device named %q", a.s)
		}
		return nil
	default:
		return nil
	}
	if a.n >= limit {
		return fmt.Errorf("%d is not %s in [0,%d)", a.n, k, limit)
	}
	return nil
}

// str renders a in the canonical form parse reads back.
func (k kind) str(a arg) string {
	switch k {
	case device:
		return a.s
	case prob:
		return strconv.FormatFloat(a.f, 'g', -1, 64) // shortest form: "0.25"
	case dur, dur0:
		return a.d.String()
	}
	return strconv.Itoa(a.n)
}

// param is one parameter of a verb. Positional parameters come first, in
// order; keyed ones follow as key=VALUE in any order.
type param struct {
	name  string // placeholder in the usage line
	kind  kind
	key   string // non-empty: written key=VALUE
	def   string // keyed only: the value when omitted; "" makes the key required
	quiet bool   // rendered only when it differs from def
}

var (
	pN     = param{name: "N", kind: node}
	pG     = param{name: "G", kind: group}
	pP     = param{name: "P", kind: prob}
	pDev   = []param{{name: "NAME", kind: device}}
	pLink  = []param{{name: "A", kind: device}, {name: "B", kind: device}}
	pLinkP = append(slices.Clone(pLink), pP)

	// pProfile is the netsim.LinkProfile key table: profileOf reads the
	// values back in this order. The adversarial keys print only when set,
	// which keeps specs written before they existed byte-stable.
	pProfile = []param{
		{name: "P", kind: prob, key: "loss", def: "0"},
		{name: "F", kind: prob, key: "jitter", def: "0"},
		{name: "P", kind: prob, key: "dup", def: "0"},
		{name: "P", kind: prob, key: "corrupt", def: "0", quiet: true},
		{name: "P", kind: prob, key: "truncate", def: "0", quiet: true},
		{name: "P", kind: prob, key: "replay", def: "0", quiet: true},
		{name: "P", kind: prob, key: "stale", def: "0", quiet: true},
	}
)

// profileOf assembles the arguments of pProfile.
func profileOf(a []arg) netsim.LinkProfile {
	return netsim.LinkProfile{Loss: a[0].f, Jitter: a[1].f, Dup: a[2].f,
		Corrupt: a[3].f, Truncate: a[4].f, Replay: a[5].f, Stale: a[6].f}
}

// verb is one row of the fault vocabulary.
type verb struct {
	name   string
	params []param
	doc    string // one line for Usage
	// wan marks a verb that acts on the inter-data-center links, and so
	// fails Install on a topology that has none.
	wan bool
	// distinct marks a verb whose arguments must differ pairwise.
	distinct bool
	// link marks a verb whose first two arguments are the ends of one link,
	// which must exist: netsim panics on a profile for a link no path can
	// cross.
	link bool
	// span is how far the verb's effect extends past its start time.
	span func(a []arg) time.Duration
	// pick resolves the node the action lands on at the moment it runs (a
	// group's current leader); apply receives it as victim, -1 when pick is
	// nil or nothing qualifies.
	pick  func(env *Env, a []arg) int
	apply func(env *Env, a []arg, victim int)
}

var verbs = []verb{
	{name: "kill", params: []param{pN}, doc: "stop one daemon",
		apply: func(env *Env, a []arg, _ int) { env.StopNode(a[0].n) }},
	{name: "restart", params: []param{pN}, doc: "start one daemon back up",
		apply: func(env *Env, a []arg, _ int) { env.StartNode(a[0].n) }},
	// Schemes without leaders lose their lowest-indexed running member, so
	// the same script stresses every scheme.
	{name: "kill-leader", params: []param{pG}, doc: "kill group G's current leader",
		pick: leaderOf, apply: stopVictim},
	{name: "group-outage", params: []param{pG}, doc: "kill every daemon of a group at once (a rack losing power)",
		apply: func(env *Env, a []arg, _ int) {
			for _, h := range env.Groups()[a[0].n] {
				env.StopNode(int(h))
			}
		}},
	{name: "group-restart", params: []param{pG}, doc: "restart every daemon of a group",
		apply: func(env *Env, a []arg, _ int) {
			for _, h := range env.Groups()[a[0].n] {
				env.StartNode(int(h))
			}
		}},
	{name: "fail-device", params: pDev, doc: "take a switch or router out; every path through it breaks",
		apply: func(env *Env, a []arg, _ int) { env.Top.FailDevice(env.device(a[0].s)) }},
	{name: "repair-device", params: pDev, doc: "bring a failed device back",
		apply: func(env *Env, a []arg, _ int) { env.Top.RepairDevice(env.device(a[0].s)) }},
	{name: "fail-link", link: true, params: pLink, doc: "cut the link between two devices (a group switch's uplink: a partition)",
		apply: func(env *Env, a []arg, _ int) { env.Top.FailLink(env.device(a[0].s), env.device(a[1].s)) }},
	{name: "repair-link", link: true, params: pLink, doc: "restore a cut link",
		apply: func(env *Env, a []arg, _ int) { env.Top.RepairLink(env.device(a[0].s), env.device(a[1].s)) }},
	{name: "loss", params: []param{pP}, doc: "network-wide loss probability",
		apply: func(env *Env, a []arg, _ int) { env.Net.SetLossProbability(a[0].f) }},
	{name: "jitter", params: []param{{name: "F", kind: prob}}, doc: "network-wide latency jitter fraction",
		apply: func(env *Env, a []arg, _ int) { env.Net.SetLatencyJitter(a[0].f) }},
	{name: "dup", params: []param{pP}, doc: "network-wide duplication probability",
		apply: func(env *Env, a []arg, _ int) { env.Net.SetDuplicateProbability(a[0].f) }},
	// The gradual-degradation regime where timeout-based detection starts
	// to flap.
	{name: "loss-ramp", doc: "sweep network-wide loss linearly FROM..TO in STEPS increments spread over OVER",
		params: []param{{name: "FROM", kind: prob}, {name: "TO", kind: prob}, {name: "OVER", kind: dur}, {name: "STEPS", kind: count1}},
		span:   func(a []arg) time.Duration { return a[2].d },
		apply: func(env *Env, a []arg, _ int) {
			from, to, over, steps := a[0].f, a[1].f, a[2].d, a[3].n
			env.Net.SetLossProbability(from)
			for i := 1; i <= steps; i++ {
				frac := float64(i) / float64(steps)
				p := from + (to-from)*frac
				env.Eng.Schedule(time.Duration(frac*float64(over)), func() { env.Net.SetLossProbability(p) })
			}
		}},
	// The profile replaces any previous one on the link, for every per-link
	// verb below as well.
	{name: "link-fault", link: true, params: append(slices.Clone(pLink), pProfile...),
		doc:   "degrade what crosses one link; no keys heals it back to the network-wide defaults",
		apply: func(env *Env, a []arg, _ int) { setLink(env, a, profileOf(a[2:])) }},
	// The asymmetric-degradation regime the paper's proxy design targets.
	{name: "wan-fault", params: pProfile, wan: true, doc: "degrade every WAN link alike; no keys heals",
		apply: func(env *Env, a []arg, _ int) {
			for _, l := range env.wanLinks() {
				env.Net.SetLinkProfile(l.A, l.B, profileOf(a))
			}
		}},
	{name: "corrupt-link", link: true, params: pLinkP, doc: "bit-flip payloads crossing the link, both directions (the wire checksum must catch it); P=0 heals",
		apply: func(env *Env, a []arg, _ int) { setLink(env, a, netsim.LinkProfile{Corrupt: a[2].f}) }},
	{name: "truncate-link", link: true, params: pLinkP, doc: "cut deliveries crossing the link short (a strict decoder must reject them); P=0 heals",
		apply: func(env *Env, a []arg, _ int) { setLink(env, a, netsim.LinkProfile{Truncate: a[2].f}) }},
	{name: "replay-link", link: true, params: pLinkP, doc: "re-deliver recent packets byte-perfect (only freshness guards reject them); P=0 heals",
		apply: func(env *Env, a []arg, _ int) { setLink(env, a, netsim.LinkProfile{Replay: a[2].f}) }},
	{name: "asym-loss", link: true, params: pLinkP, doc: "drop only the A->B direction: A hears B, B never hears A; P=0 heals",
		apply: func(env *Env, a []arg, _ int) {
			env.Net.SetLinkProfileDir(env.device(a[0].s), env.device(a[1].s), netsim.LinkProfile{Loss: a[2].f})
		}},
	// The limping-but-alive member that timeout tuning must tolerate: the
	// daemon keeps running, every packet it sends or receives is delayed.
	{name: "gray-node", params: []param{pN, {name: "LAG", kind: dur0}}, doc: "seeded uniform [0,LAG) processing delay on one host; LAG=0 heals",
		apply: func(env *Env, a []arg, _ int) { env.Net.Endpoint(topology.HostID(a[0].n)).SetGrayLag(a[1].d) }},
	// The overload model of docs/ADAPTIVE.md: the victim's daemon stays alive
	// but its relay duties starve. Healing covers the whole group because by
	// then the hot node may no longer lead. Schemes without a load model
	// ignore the verb.
	{name: "hot-leader", params: []param{pG, {name: "UNITS", kind: count0}}, doc: "saturate group G's leader with external load; UNITS=0 heals the group",
		pick: func(env *Env, a []arg) int {
			if a[1].n == 0 {
				return -1
			}
			return leaderOf(env, a)
		},
		apply: func(env *Env, a []arg, victim int) {
			members := env.Groups()[a[0].n]
			if a[1].n > 0 {
				if victim < 0 {
					return
				}
				members = []topology.HostID{topology.HostID(victim)}
			}
			for _, h := range members {
				if hl, ok := env.Nodes[h].(interface{ SetHotLoad(units int) }); ok {
					hl.SetHotLoad(a[1].n)
				}
			}
		}},
	// A re-cabling that folds two TTL-1 scopes into one without failing
	// anything: the merged level-0 group is pathologically oversized, and
	// only re-formation can split it back into bounds.
	{name: "skew-groups", params: []param{{name: "A", kind: group}, {name: "B", kind: group}}, distinct: true,
		doc: "re-home group A's hosts onto group B's access switch",
		apply: func(env *Env, a []arg, _ int) {
			groups := env.Groups()
			if sw, ok := accessSwitch(env, groups[a[1].n][0]); ok {
				for _, h := range groups[a[0].n] {
					env.Top.RehomeHost(h, sw)
				}
			}
		}},
	// The unstable-member regime that stresses incarnation handling and
	// refute/rejoin logic.
	{name: "flap", doc: "cycle one daemon down for D, up for D, count times",
		params: []param{pN, {name: "D", kind: dur, key: "down"}, {name: "D", kind: dur, key: "up"}, {name: "K", kind: count1, key: "count", def: "1"}},
		span:   func(a []arg) time.Duration { return time.Duration(a[3].n) * (a[1].d + a[2].d) },
		apply: func(env *Env, a []arg, _ int) {
			n, down, up := a[0].n, a[1].d, a[2].d
			for c := 0; c < a[3].n; c++ {
				off := time.Duration(c) * (down + up)
				env.Eng.Schedule(off, func() { env.StopNode(n) })
				env.Eng.Schedule(off+down, func() { env.StartNode(n) })
			}
		}},
	// Clusters without proxies lose the lowest-indexed running host of the
	// data center instead, so one script stresses every scheme.
	{name: "kill-proxy-leader", params: []param{{name: "DC", kind: dc}}, doc: "kill the host leading a data center's proxy group (the VIP holder)",
		pick: proxyLeaderOf, apply: stopVictim},
	{name: "restart-down", doc: "restart every daemon that is down",
		apply: func(env *Env, _ []arg, _ int) {
			for i := range env.Nodes {
				env.StartNode(i)
			}
		}},
	// The regime where remote summaries must expire rather than go
	// stale-but-live.
	{name: "fail-wan", wan: true, doc: "cut every inter-data-center link",
		apply: func(env *Env, _ []arg, _ int) {
			for _, l := range env.wanLinks() {
				env.Top.FailLink(l.A, l.B)
			}
		}},
	{name: "repair-wan", wan: true, doc: "restore every inter-data-center link",
		apply: func(env *Env, _ []arg, _ int) {
			for _, l := range env.wanLinks() {
				env.Top.RepairLink(l.A, l.B)
			}
		}},
}

func stopVictim(env *Env, _ []arg, victim int) {
	if victim >= 0 {
		env.StopNode(victim)
	}
}

func setLink(env *Env, a []arg, p netsim.LinkProfile) {
	env.Net.SetLinkProfile(env.device(a[0].s), env.device(a[1].s), p)
}

// leaderOf resolves the current leader of level-0 group a[0]: the
// lowest-indexed running member that claims leadership, else the
// lowest-indexed running member, else -1.
func leaderOf(env *Env, a []arg) int {
	victim := -1
	for _, h := range env.Groups()[a[0].n] {
		n := env.Nodes[h]
		if !n.Running() {
			continue
		}
		if l, ok := n.(interface{ IsLeader(level int) bool }); ok && l.IsLeader(0) {
			return int(h)
		}
		if victim < 0 {
			victim = int(h)
		}
	}
	return victim
}

// proxyLeaderOf resolves the host leading data center a[0]'s proxy group,
// else its lowest running proxy, else its lowest running host, else -1.
func proxyLeaderOf(env *Env, a []arg) int {
	victim := -1
	for _, p := range env.Proxies {
		if p.DC() != a[0].n || !p.Running() {
			continue
		}
		if p.IsLeader() {
			return int(p.Host())
		}
		if victim < 0 {
			victim = int(p.Host())
		}
	}
	if victim < 0 {
		for _, h := range env.Top.HostsInDC(a[0].n) {
			if int(h) < len(env.Nodes) && env.Nodes[h].Running() {
				return int(h)
			}
		}
	}
	return victim
}

// accessSwitch finds the device a host's single access link attaches to.
func accessSwitch(env *Env, h topology.HostID) (topology.DeviceID, bool) {
	hd := env.Top.HostDevice(h).ID
	for _, l := range env.Top.Links() {
		if l.A == hd {
			return l.B, true
		}
		if l.B == hd {
			return l.A, true
		}
	}
	return 0, false
}

// linked reports whether a link joins devices a and b.
func (e *Env) linked(a, b topology.DeviceID) bool {
	return slices.ContainsFunc(e.Top.Links(), func(l topology.Link) bool {
		return (l.A == a && l.B == b) || (l.A == b && l.B == a)
	})
}

// wanLinks lists the inter-data-center links.
func (e *Env) wanLinks() []topology.Link {
	var out []topology.Link
	for _, l := range e.Top.Links() {
		if l.WAN {
			out = append(out, l)
		}
	}
	return out
}

// Action is one fault or heal operation: a row of the verb table with its
// arguments, or a repeat block (the one special form). Actions are written
// in the spec language — ParseSpec, or Steps from Go.
type Action struct {
	verb *verb
	args []arg
	rep  *repeat
}

// repeat replays a sub-timeline count times, every apart. A non-zero stride
// shifts every node argument in the body by stride more on each iteration,
// so one block expresses rolling failures ("one victim per group, 5s
// apart") without spelling out every step.
type repeat struct {
	count  int
	every  time.Duration
	stride int
	body   []Step
}

func (r *repeat) header() string {
	s := fmt.Sprintf("repeat %d every %v", r.count, r.every)
	if r.stride != 0 {
		s += fmt.Sprintf(" step %d", r.stride)
	}
	return s
}

// usage is the verb's line in Usage and in arity errors.
func (v *verb) usage() string {
	s := v.name
	for _, p := range v.params {
		switch {
		case p.key == "":
			s += " " + p.name
		case p.def == "":
			s += fmt.Sprintf(" %s=%s", p.key, p.name)
		default:
			s += fmt.Sprintf(" [%s=%s]", p.key, p.name)
		}
	}
	return s
}

// Usage is the fault vocabulary of the spec language, one line per row of
// the verb table; cmd/tampsim -list-scenarios prints it.
func Usage() string {
	var b strings.Builder
	b.WriteString("Steps are \"@OFFSET VERB ARGS...\" with OFFSET a Go duration. Verbs:\n")
	for i := range verbs {
		u := verbs[i].usage()
		if len(u) > 28 {
			u += "\n" + strings.Repeat(" ", 30)
		}
		fmt.Fprintf(&b, "  %-28s %s\n", u, verbs[i].doc)
	}
	b.WriteString("A block \"@OFFSET repeat COUNT every D [step K] {\", steps, \"}\" replays the steps COUNT times, D\n" +
		"apart, their offsets relative to each iteration's start; step K shifts every node argument (N)\n" +
		"by K more each iteration; blocks nest. P and F are probabilities in [0,1), D, LAG and OVER Go\n" +
		"durations; node, group, data-center and device arguments are checked against the concrete\n" +
		"cluster when the scenario is installed.\n")
	return b.String()
}

func verbNames() string {
	names := make([]string, len(verbs))
	for i := range verbs {
		names[i] = verbs[i].name
	}
	return strings.Join(names, ", ")
}

// parseAction parses "VERB ARGS..." against the table.
func parseAction(name string, toks []string) (Action, error) {
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == name })
	if i < 0 {
		return Action{}, fmt.Errorf("unknown action %q (want one of %s, repeat)", name, verbNames())
	}
	v := &verbs[i]
	args := make([]arg, len(v.params))
	set := make([]bool, len(v.params))
	npos := 0
	for npos < len(v.params) && v.params[npos].key == "" {
		npos++
	}
	if len(toks) < npos || (npos == len(v.params) && len(toks) > npos) {
		return Action{}, fmt.Errorf("%s: want %q, got %d arguments", name, v.usage(), len(toks))
	}
	for j, tok := range toks {
		pi, val := j, tok
		if j >= npos {
			key, rest, ok := strings.Cut(tok, "=")
			if !ok || key == "" {
				return Action{}, fmt.Errorf("%s: argument %q is not key=value", name, tok)
			}
			pi = slices.IndexFunc(v.params, func(p param) bool { return p.key == key })
			if pi < 0 {
				return Action{}, fmt.Errorf("%s: unknown key %q (want %q)", name, key, v.usage())
			}
			val = rest
		}
		var err error
		if args[pi], err = v.params[pi].kind.parse(val); err != nil {
			return Action{}, fmt.Errorf("%s: %w", name, err)
		}
		set[pi] = true
	}
	for pi, p := range v.params {
		if set[pi] {
			continue
		}
		if p.def == "" {
			return Action{}, fmt.Errorf("%s: missing %s= (want %q)", name, p.key, v.usage())
		}
		args[pi], _ = p.kind.parse(p.def)
	}
	return Action{verb: v, args: args}, nil
}

// String returns the canonical spec form ("kill 5", "fail-link sw1 core").
func (a Action) String() string {
	switch {
	case a.rep != nil:
		var b strings.Builder
		b.WriteString(a.rep.header() + " {")
		for _, st := range a.rep.body {
			for _, line := range strings.Split(fmt.Sprintf("@%v %s", st.At, st.Act), "\n") {
				b.WriteString("\n\t" + line)
			}
		}
		return b.String() + "\n}"
	case a.verb == nil:
		return "<no action>"
	}
	s := a.verb.name
	for i, p := range a.verb.params {
		val := p.kind.str(a.args[i])
		switch {
		case p.key == "":
			s += " " + val
		case !p.quiet || val != p.def:
			s += " " + p.key + "=" + val
		}
	}
	return s
}

// Apply runs the action now. With env.Trace set it first reports one line:
// the canonical form, and the node it resolved if the verb picks a victim.
func (a Action) Apply(env *Env) {
	if r := a.rep; r != nil {
		env.trace(r.header())
		for c := 0; c < r.count; c++ {
			base := time.Duration(c) * r.every
			for _, st := range r.body {
				act := st.Act.shift(c * r.stride)
				env.Eng.Schedule(base+st.At, func() { act.Apply(env) })
			}
		}
		return
	}
	victim, line := -1, a.String()
	if a.verb.pick != nil {
		if victim = a.verb.pick(env, a.args); victim >= 0 {
			line += fmt.Sprintf(" -> node %d", victim)
		}
	}
	env.trace(line)
	a.verb.apply(env, a.args, victim)
}

// shift moves every node argument by a constant offset.
func (a Action) shift(by int) Action {
	switch {
	case by == 0:
	case a.rep != nil:
		r := *a.rep
		r.body = make([]Step, len(a.rep.body))
		for i, st := range a.rep.body {
			r.body[i] = Step{At: st.At, Act: st.Act.shift(by)}
		}
		a.rep = &r
	default:
		a.args = slices.Clone(a.args)
		for i, p := range a.verb.params {
			if p.kind == node {
				a.args[i].n += by
			}
		}
	}
	return a
}

// span is how far the action's effect extends past its start time (ramps,
// flapping, repeat blocks).
func (a Action) span() time.Duration {
	switch {
	case a.rep != nil:
		return time.Duration(a.rep.count-1)*a.rep.every + extent(a.rep.body)
	case a.verb != nil && a.verb.span != nil:
		return a.verb.span(a.args)
	}
	return 0
}

// extent is the offset at which the last step of a timeline has finished.
func extent(steps []Step) time.Duration {
	var end time.Duration
	for _, st := range steps {
		end = max(end, st.At+st.Act.span())
	}
	return end
}

// check validates the action against a concrete environment before
// anything is scheduled.
func (a Action) check(env *Env) error {
	if r := a.rep; r != nil {
		return r.check(env)
	}
	v := a.verb
	if v == nil || len(a.args) != len(v.params) {
		return fmt.Errorf("malformed action")
	}
	for i, p := range v.params {
		if err := p.kind.check(env, a.args[i]); err != nil {
			return err
		}
		if v.distinct && slices.Contains(a.args[:i], a.args[i]) {
			return fmt.Errorf("%s needs distinct arguments", v.name)
		}
	}
	if v.link && !env.linked(env.device(a.args[0].s), env.device(a.args[1].s)) {
		return fmt.Errorf("no link between %s and %s", a.args[0].s, a.args[1].s)
	}
	if v.wan && len(env.wanLinks()) == 0 {
		return fmt.Errorf("topology has no WAN links")
	}
	return nil
}

func (r *repeat) check(env *Env) error {
	if err := count1.valid(arg{n: r.count}); err != nil {
		return fmt.Errorf("repeat count: %w", err)
	}
	if err := dur.valid(arg{d: r.every}); err != nil {
		return fmt.Errorf("repeat interval: %w", err)
	}
	if err := count0.valid(arg{n: r.stride}); err != nil {
		return fmt.Errorf("repeat stride: %w", err)
	}
	if len(r.body) == 0 {
		return fmt.Errorf("repeat body is empty")
	}
	// With a stride every iteration targets different nodes, so each must
	// validate; without one, one pass covers them all.
	iters := r.count
	if r.stride == 0 {
		iters = 1
	}
	for c := 0; c < iters; c++ {
		for _, st := range r.body {
			if st.At < 0 {
				return fmt.Errorf("repeat body step has negative offset %v", st.At)
			}
			act := st.Act.shift(c * r.stride)
			if err := act.check(env); err != nil {
				return fmt.Errorf("iteration %d (%s): %w", c, act, err)
			}
		}
	}
	return nil
}
