package invariant

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Node is the audited surface of one protocol daemon. Index i in the
// auditor's node slice must be host i in the topology.
type Node interface {
	ID() membership.NodeID
	Running() bool
	Directory() *membership.Directory
}

// Options bound the auditor's checks.
type Options struct {
	// Interval is the sampling period (default 1s).
	Interval time.Duration
	// Deadline is the absolute virtual time after which completeness is
	// enforced: scenario end plus the scheme's settle bound.
	Deadline time.Duration
	// PurgeBound is how long a dead daemon may linger in views before it
	// counts as a phantom (scheme-dependent: failure timeout plus relay
	// or tombstone TTLs).
	PurgeBound time.Duration
	// LeaderGrace is how long the running set and topology must have been
	// stable before leader uniqueness is enforced.
	LeaderGrace time.Duration
	// IntraDCOnly scopes the completeness check to same-data-center pairs.
	// The federated (hierarchical+proxy) architecture deliberately does not
	// replicate full membership across the WAN — remote availability flows
	// through proxy summaries instead, which the federation invariants
	// audit — so cross-DC view gaps are its contract, not a violation.
	IntraDCOnly bool
	// EventDriven additionally hooks every directory's mutation stream, so
	// violations are stamped at the exact virtual time of the offending
	// mutation instead of the next sampling tick. The periodic sampler
	// keeps running as the fallback path (absence — a view that never
	// re-adds a node — produces no events to hook). The stability counters
	// and the flap-freedom invariant need it.
	EventDriven bool
	// Observers, when non-nil, restricts which node indices act as
	// observers: only their directories are hooked and sampled, and
	// per-observer state (lastSeen, flap counts) is allocated only for
	// them. Subjects are always the whole cluster. Parsim runs shard the
	// audit this way — one auditor per logical process, observers = the
	// LP's own hosts — and merge verdicts with MergeResults.
	Observers []int
	// GroupBounds arms the re-formation convergence check
	// (docs/ADAPTIVE.md): after Deadline, every protocol-level group —
	// hosts sharing a current TTL-1 scope, refined by the level-0 channel
	// each node reports — must hold a live size within [GroupBounds[0],
	// GroupBounds[1]] and have exactly one leader claimant. The lower
	// bound applies only to split-off groups (the ones a merge can fix).
	// A zero upper bound leaves the check disarmed; schemes whose nodes
	// expose no Level0Channel probe report it 0/0.
	GroupBounds [2]int
	// FaultEnd is the absolute virtual time of the scenario's last fault;
	// from it on the auditor tracks the first instant the re-formation
	// condition held and stayed held (ReformConvergence).
	FaultEnd time.Duration
}

// flapWarmup is the boot grace before view-stability accounting starts
// (initial convergence churn is not instability).
const flapWarmup = 15 * time.Second

// Invariant names, in report order. The federation invariants
// (summary-fresh, summary-truth, vip-unique) only accrue checks when a
// Federation is attached; other schemes report them as 0/0 so every cell
// of the chaos matrix has the same column set.
const (
	invCompleteness = iota
	invNoPhantoms
	invLeaderUnique
	invSeqMonotone
	invFlapFreedom
	invSummaryFresh
	invSummaryTruth
	invVIPUnique
	invReformConverge
	numInvariants
)

var invNames = [numInvariants]string{
	"completeness", "no-phantoms", "leader-unique", "seq-monotone",
	"flap-freedom", "summary-fresh", "summary-truth", "vip-unique",
	"reform-converge",
}

const maxExamples = 3

type inv struct {
	checks     uint64
	violations uint64
	first      time.Duration
	examples   []string
}

func (v *inv) violate(now time.Duration, format string, args ...any) {
	if v.violations == 0 {
		v.first = now
	}
	v.violations++
	if len(v.examples) < maxExamples {
		v.examples = append(v.examples, fmt.Sprintf("@%v %s", now, fmt.Sprintf(format, args...)))
	}
}

// seqState is the last (incarnation, version, beat) an observer was seen
// holding for a subject; it survives entry removal so stale resurrections
// are caught.
type seqState struct {
	seen bool
	inc  uint32
	ver  uint64
	beat uint64
}

// Auditor samples the cluster. Create with New, arm with Start, read
// verdicts with Results/Report after the run.
type Auditor struct {
	eng   *sim.Engine
	top   *topology.Topology
	nodes []Node
	o     Options

	groups      [][]topology.HostID
	obs         []int           // observer indices (all nodes unless Options.Observers)
	isObs       []bool          // obs as a set; nil when every node observes
	downSince   []time.Duration // -1 while running
	upSince     []time.Duration // last (re)start; a fresh observer gets purge grace
	wasRunning  []bool
	lastSeen    [][]seqState // observer x subject
	stableSince time.Duration
	lastEpoch   uint64
	stopped     bool

	// Ground-truth caches. dc is each audited host's data center (fixed
	// for a run). reach labels every host's connectivity component
	// (topology.HostComponents) as of topology epoch reachEpoch; syncReach
	// relabels when the epoch moves, so between faults a reachability test
	// is two label reads instead of a path lookup.
	dc         []int
	reach      []int32
	reachEpoch uint64

	fed *Federation

	// View-stability accounting (event-driven only): membership transitions
	// observed after the warmup, spurious evictions (a healthy, reachable,
	// steady member dropped from a steady observer's view), and the
	// per-(observer, subject) spurious counts behind the flap-freedom
	// invariant — one mistaken eviction per pair is instability the
	// stability metric charges, a REPEAT is a protocol flap and a violation.
	startedAt   time.Duration
	viewChanges uint64
	spurious    uint64
	flaps       [][]uint8

	// convergedAt is the first instant after Options.FaultEnd at which the
	// re-formation condition held and has held ever since (-1 while it has
	// not, or not yet).
	convergedAt time.Duration

	invs [numInvariants]inv
}

// New builds an auditor over a cluster. Groups are computed from the
// topology immediately, before any chaos runs.
func New(eng *sim.Engine, top *topology.Topology, nodes []Node, o Options) *Auditor {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	a := &Auditor{
		eng:    eng,
		top:    top,
		nodes:  nodes,
		o:      o,
		groups: top.Level0Groups(),
	}
	n := len(nodes)
	if o.Observers != nil {
		a.obs = o.Observers
		// Leader uniqueness is an observer-side check: keep only the groups
		// this auditor's observers belong to, so sharded auditors split the
		// group set exactly once between them.
		a.isObs = make([]bool, n)
		for _, i := range a.obs {
			a.isObs[i] = true
		}
		kept := a.groups[:0:0]
		for _, g := range a.groups {
			if a.observes(g) {
				kept = append(kept, g)
			}
		}
		a.groups = kept
	} else {
		a.obs = make([]int, n)
		for i := range a.obs {
			a.obs[i] = i
		}
	}
	a.downSince = make([]time.Duration, n)
	a.upSince = make([]time.Duration, n)
	a.wasRunning = make([]bool, n)
	// Per-observer rows only: at N=10k with 500 LPs, full N x N rows per
	// auditor would cost 500x the serial run's memory.
	a.lastSeen = make([][]seqState, n)
	a.flaps = make([][]uint8, n)
	for _, i := range a.obs {
		a.lastSeen[i] = make([]seqState, n)
		a.flaps[i] = make([]uint8, n)
	}
	for i := range a.invs {
		a.invs[i].first = -1
	}
	a.convergedAt = -1
	a.dc = make([]int, n)
	for i := range a.dc {
		a.dc[i] = top.HostDC(topology.HostID(i))
	}
	return a
}

// observes reports whether a level-0 group is this auditor's to judge. A
// group never straddles logical processes, so its first host decides; in a
// sharded audit the other shards' groups are being mutated by other workers
// and must not even be read.
func (a *Auditor) observes(group []topology.HostID) bool {
	return a.isObs == nil || (int(group[0]) < len(a.isObs) && a.isObs[group[0]])
}

// syncReach relabels host connectivity if the topology changed since the
// labels were taken. Each sample and each directory event that needs
// reachability calls it once. In a sharded audit every auditor labels for
// itself: parsim mutates the topology only between windows, so all of them
// read the same epoch.
func (a *Auditor) syncReach() {
	if ep := a.top.Epoch(); a.reach == nil || ep != a.reachEpoch {
		a.reach, a.reachEpoch = a.top.HostComponents(), ep
	}
}

// reachable reports whether unicast between two hosts works (any topology
// host, proxy endpoints included), as of the last syncReach.
func (a *Auditor) reachable(x, y topology.HostID) bool {
	l := a.reach[x]
	return l >= 0 && l == a.reach[y]
}

// Start records the initial ground truth and schedules periodic sampling
// until Stop (or forever; an idle engine just stops delivering events).
func (a *Auditor) Start() {
	now := a.eng.Now()
	for i, n := range a.nodes {
		a.wasRunning[i] = n.Running()
		a.upSince[i] = now
		if n.Running() {
			a.downSince[i] = -1
		} else {
			a.downSince[i] = now
		}
	}
	a.stableSince = now
	a.startedAt = now
	a.lastEpoch = a.top.Epoch()
	if a.o.EventDriven {
		for _, i := range a.obs {
			i := i
			a.nodes[i].Directory().AddObserver(func(e membership.Event) { a.onEvent(i, e) })
		}
	}
	var tick func()
	tick = func() {
		if a.stopped {
			return
		}
		a.sample()
		a.eng.Schedule(a.o.Interval, tick)
	}
	a.eng.Schedule(a.o.Interval, tick)
}

// Stop halts sampling.
func (a *Auditor) Stop() { a.stopped = true }

func (a *Auditor) sample() {
	now := a.eng.Now()
	a.syncReach()

	// Ground truth: running-set transitions and stability tracking.
	for i := range a.nodes {
		a.noteRunning(i, now)
	}
	if ep := a.top.Epoch(); ep != a.lastEpoch {
		a.lastEpoch = ep
		a.stableSince = now
	}

	a.checkCompleteness(now)
	a.checkPhantomsAndSeq(now)
	a.checkLeaders(now)
	a.checkReform(now)
	a.checkFederation(now)
}

// noteRunning refreshes the ground-truth trackers for one node: each sample
// runs it for every node, and the event hooks for the pair an event touched,
// so an exact-timestamp check never reads stale down/up times.
func (a *Auditor) noteRunning(i int, now time.Duration) {
	r := a.nodes[i].Running()
	if r == a.wasRunning[i] {
		return
	}
	a.wasRunning[i] = r
	if r {
		a.downSince[i] = -1
		a.upSince[i] = now
	} else {
		a.downSince[i] = now
	}
	a.stableSince = now
}

// onEvent is the event-driven audit hook: it re-runs the phantom, sequence,
// and completeness checks for exactly the (observer, subject) pair a
// directory mutation touched, at the mutation's own virtual timestamp.
func (a *Auditor) onEvent(i int, e membership.Event) {
	if a.stopped {
		return
	}
	j := int(e.Node)
	if j < 0 || j >= len(a.nodes) || j == i || !a.nodes[i].Running() {
		return
	}
	now := a.eng.Now()
	a.noteRunning(i, now)
	a.noteRunning(j, now)
	warm := now-a.startedAt >= flapWarmup
	switch e.Type {
	case membership.EventJoin, membership.EventUpdate:
		if e.Type == membership.EventJoin && warm {
			a.viewChanges++
		}
		if en := a.nodes[i].Directory().Get(e.Node); en != nil {
			a.checkEntry(i, j, en, now, "(re)admitted")
		}
	case membership.EventLeave:
		a.syncReach()
		if warm {
			a.viewChanges++
			a.invs[invFlapFreedom].checks++
		}
		// Spurious-eviction accounting runs for the whole fault window, not
		// just after the settle deadline: dropping a subject that is running
		// at ground truth, has been up longer than the purge bound (so this
		// is not the delayed purge of its previous death), from an observer
		// itself steady that long (not a restart flushing a stale view),
		// with the pair mutually reachable, is the view instability the
		// stability metric charges — and a REPEAT for the same pair is a
		// flap-freedom violation.
		if warm && a.nodes[j].Running() && a.downSince[j] < 0 &&
			now-a.upSince[j] > a.o.PurgeBound &&
			now-a.upSince[i] > a.o.PurgeBound &&
			(!a.o.IntraDCOnly || a.dc[i] == a.dc[j]) &&
			a.reachable(topology.HostID(i), topology.HostID(j)) {
			a.spurious++
			if a.flaps[i][j] < 255 {
				a.flaps[i][j]++
			}
			if a.flaps[i][j] >= 2 {
				a.invs[invFlapFreedom].violate(now,
					"node %d evicted healthy node %d again (%d times)", i, j, a.flaps[i][j])
			}
		}
		// Dropping a live, reachable peer after the settle deadline is a
		// completeness violation the sampler would only see a tick later.
		if now < a.o.Deadline || !a.nodes[j].Running() {
			return
		}
		if a.o.IntraDCOnly && a.dc[i] != a.dc[j] {
			return
		}
		if !a.reachable(topology.HostID(i), topology.HostID(j)) {
			return
		}
		v := &a.invs[invCompleteness]
		v.checks++
		v.violate(now, "node %d dropped running reachable node %d", i, j)
	}
}

// Stability returns the view-stability counters: total membership
// transitions (joins + leaves across all audited directories) after the
// warmup, and how many of the leaves were spurious — a member healthy at
// ground truth evicted from a steady, reachable observer's view.
func (a *Auditor) Stability() (viewChanges, spurious uint64) {
	return a.viewChanges, a.spurious
}

func (a *Auditor) checkCompleteness(now time.Duration) {
	if now < a.o.Deadline {
		return
	}
	v := &a.invs[invCompleteness]
	for _, i := range a.obs {
		obs := a.nodes[i]
		if !obs.Running() {
			continue
		}
		dir := obs.Directory()
		for j, subj := range a.nodes {
			if i == j || !subj.Running() {
				continue
			}
			if a.o.IntraDCOnly && a.dc[i] != a.dc[j] {
				continue
			}
			if !a.reachable(topology.HostID(i), topology.HostID(j)) {
				continue
			}
			v.checks++
			if !dir.Has(subj.ID()) {
				v.violate(now, "node %d's view misses running reachable node %d", i, j)
			}
		}
	}
}

func (a *Auditor) checkPhantomsAndSeq(now time.Duration) {
	for _, i := range a.obs {
		obs := a.nodes[i]
		if !obs.Running() {
			continue
		}
		obs.Directory().Range(func(id membership.NodeID, e *membership.Entry) {
			if j := int(id); j >= 0 && j < len(a.nodes) {
				a.checkEntry(i, j, e, now, "still lists")
			}
		})
	}
}

// checkEntry audits observer i's entry e for subject j at now, for both the
// sampler and the event hooks. No phantom: a subject other than i itself is
// not held longer than the purge bound after it died. The phantom clock
// starts at whichever is later, the subject dying or the observer
// (re)starting: a node restarting with a stale pre-crash directory needs its
// own detection time before it can have purged anyone. Seq-monotone: the
// entry's (incarnation, version, beat) never goes back from what i last held.
// how is the verb of a phantom example.
func (a *Auditor) checkEntry(i, j int, e *membership.Entry, now time.Duration, how string) {
	if j != i {
		ph := &a.invs[invNoPhantoms]
		ph.checks++
		since := a.downSince[j]
		if since >= 0 && a.upSince[i] > since {
			since = a.upSince[i]
		}
		if since >= 0 && now-since > a.o.PurgeBound {
			ph.violate(now, "node %d %s node %d, down for %v (bound %v)",
				i, how, j, now-a.downSince[j], a.o.PurgeBound)
		}
	}
	st := &a.lastSeen[i][j]
	if st.seen {
		sq := &a.invs[invSeqMonotone]
		sq.checks++
		in, ver, beat := e.Incarnation, e.Version, e.Beat
		if in < st.inc || (in == st.inc && (ver < st.ver || beat < st.beat)) {
			sq.violate(now, "node %d's entry for %d regressed: (%d,%d,%d) -> (%d,%d,%d)",
				i, j, st.inc, st.ver, st.beat, in, ver, beat)
		}
	}
	st.seen = true
	st.inc, st.ver, st.beat = e.Incarnation, e.Version, e.Beat
}

func (a *Auditor) checkLeaders(now time.Duration) {
	if a.o.LeaderGrace <= 0 || now-a.stableSince < a.o.LeaderGrace {
		return
	}
	v := &a.invs[invLeaderUnique]
	for g, hosts := range a.groups {
		var claimants []topology.HostID
		counted := false
		for _, h := range hosts {
			n := a.nodes[h]
			if !n.Running() {
				continue
			}
			l, ok := n.(interface{ IsLeader(level int) bool })
			if !ok {
				continue
			}
			counted = true
			if l.IsLeader(0) {
				claimants = append(claimants, h)
			}
		}
		if !counted {
			continue
		}
		v.checks++
		// Split-brain only counts when the claimants could have talked.
		for x := 0; x < len(claimants); x++ {
			for y := x + 1; y < len(claimants); y++ {
				if a.reachable(claimants[x], claimants[y]) {
					v.violate(now, "group %d has reachable co-leaders %d and %d",
						g, claimants[x], claimants[y])
				}
			}
		}
	}
}

// level0Channeler is the probe the re-formation check partitions groups
// by: the channel a node's level-0 membership currently lives on (it moves
// when the group splits or merges). level0Parenter marks split-off groups,
// the only ones the merge machinery — and hence the lower bound — applies
// to.
type level0Channeler interface{ Level0Channel() int }
type level0Parenter interface{ Level0Parent() int }

// checkReform audits the self-organizing hierarchy's convergence contract:
// bounded live group sizes and exactly one leader claimant per
// protocol-level group. Pre-deadline samples only feed the convergence
// clock; post-deadline failures are violations.
func (a *Auditor) checkReform(now time.Duration) {
	if a.o.GroupBounds[1] <= 0 {
		return
	}
	ok, detail := a.reformState()
	if ok && detail == "" {
		// No audited node exposes the probe: the scheme has no adaptive
		// hierarchy, so the invariant reports 0/0 like the federation set.
		return
	}
	if now >= a.o.FaultEnd {
		if ok {
			if a.convergedAt < 0 {
				a.convergedAt = now
			}
		} else {
			a.convergedAt = -1
		}
	}
	if now < a.o.Deadline {
		return
	}
	v := &a.invs[invReformConverge]
	v.checks++
	if !ok {
		v.violate(now, "%s", detail)
	}
}

// reformState evaluates the condition once over the groups this auditor
// observes. It returns ok=true with an empty detail when no node exposes
// the probe, ok=true with detail "ok" when the condition holds, and
// ok=false with the first offending group otherwise.
func (a *Auditor) reformState() (bool, string) {
	probed := false
	for _, scope := range a.top.Level0Groups() {
		if !a.observes(scope) {
			continue
		}
		// Partition the physical TTL-1 scope by reported level-0 channel:
		// co-located hosts on different channels are different protocol
		// groups after a split.
		byChan := make(map[int][]int)
		var chans []int
		for _, h := range scope {
			i := int(h)
			if i >= len(a.nodes) || !a.nodes[i].Running() {
				continue
			}
			c, okc := a.nodes[i].(level0Channeler)
			if !okc {
				continue
			}
			probed = true
			ch := c.Level0Channel()
			if _, seen := byChan[ch]; !seen {
				chans = append(chans, ch)
			}
			byChan[ch] = append(byChan[ch], i)
		}
		sort.Ints(chans)
		for _, ch := range chans {
			members := byChan[ch]
			if len(members) > a.o.GroupBounds[1] {
				return false, fmt.Sprintf("group on channel %d has %d live members (max %d)",
					ch, len(members), a.o.GroupBounds[1])
			}
			if len(members) < a.o.GroupBounds[0] {
				// The lower bound binds only split-off groups; an original
				// group whittled down by kills has no parent to merge into.
				split := false
				for _, i := range members {
					if p, okp := a.nodes[i].(level0Parenter); okp && p.Level0Parent() != 0 {
						split = true
						break
					}
				}
				if split {
					return false, fmt.Sprintf("split-off group on channel %d has %d live members (min %d)",
						ch, len(members), a.o.GroupBounds[0])
				}
			}
			claimants := 0
			for _, i := range members {
				if l, okl := a.nodes[i].(interface{ IsLeader(level int) bool }); okl && l.IsLeader(0) {
					claimants++
				}
			}
			if claimants != 1 {
				return false, fmt.Sprintf("group on channel %d has %d leader claimants",
					ch, claimants)
			}
		}
	}
	if !probed {
		return true, ""
	}
	return true, "ok"
}

// ReformConvergence reports whether the hierarchy was back inside the
// re-formation contract at the end of the run (having stayed there since
// some instant after the last fault), and how long after the last fault
// that instant came. Meaningful only when Options.GroupBounds armed the
// check.
func (a *Auditor) ReformConvergence() (bool, time.Duration) {
	if a.convergedAt < 0 {
		return false, 0
	}
	return true, a.convergedAt - a.o.FaultEnd
}

// MergeConvergence folds sharded auditors' ReformConvergence: the hierarchy
// is inside the contract when every shard's groups are, and has been since
// the last of them got there. The shards sample at the same instants, so
// this is the instant one auditor over the whole cluster reports.
func MergeConvergence(auds []*Auditor) (bool, time.Duration) {
	var latest time.Duration
	for _, a := range auds {
		ok, in := a.ReformConvergence()
		if !ok {
			return false, 0
		}
		if in > latest {
			latest = in
		}
	}
	return len(auds) > 0, latest
}

// Results returns per-invariant verdicts in fixed order, suitable for
// metrics.RunReport.Invariants.
func (a *Auditor) Results() []metrics.InvariantResult {
	out := make([]metrics.InvariantResult, numInvariants)
	for i := range a.invs {
		out[i] = metrics.InvariantResult{
			Name:       invNames[i],
			Checks:     a.invs[i].checks,
			Violations: a.invs[i].violations,
			First:      a.invs[i].first,
		}
	}
	return out
}

// MergeResults folds sharded auditors' verdicts (one per logical process,
// all in the fixed invariant order) into one report: checks and violations
// sum, First takes the earliest violating shard's timestamp. The result is
// independent of how the cluster was sharded, because every (observer,
// subject) pair is audited by exactly one shard.
func MergeResults(parts ...[]metrics.InvariantResult) []metrics.InvariantResult {
	if len(parts) == 0 {
		return nil
	}
	out := make([]metrics.InvariantResult, len(parts[0]))
	copy(out, parts[0])
	for _, p := range parts[1:] {
		for i := range out {
			out[i].Checks += p[i].Checks
			if p[i].Violations > 0 {
				if out[i].Violations == 0 || p[i].First < out[i].First {
					out[i].First = p[i].First
				}
				out[i].Violations += p[i].Violations
			}
		}
	}
	return out
}

// Report renders a deterministic human-readable verdict summary with up to
// three example violations per invariant.
func (a *Auditor) Report() string {
	var b strings.Builder
	for i := range a.invs {
		v := &a.invs[i]
		status := "ok"
		if v.violations > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-13s %-4s checks=%-7d violations=%d", invNames[i], status, v.checks, v.violations)
		if v.violations > 0 {
			fmt.Fprintf(&b, " first=%v", v.first)
		}
		b.WriteByte('\n')
		for _, ex := range v.examples {
			fmt.Fprintf(&b, "    %s\n", ex)
		}
	}
	return b.String()
}
