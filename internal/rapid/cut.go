package rapid

import (
	"time"

	"repro/internal/membership"
)

// CutDetector is Rapid's multi-node cut detection filter: it aggregates the
// per-edge DOWN/UP alerts flowing from the monitoring overlay into a
// per-subject count of distinct accusing observers, and classifies subjects
// against the stable low/high watermarks L and H. A subject with at least H
// accusers is a *stable* cut candidate — almost everywhere agreed dead. A
// subject stuck between L and H-1 accusers is *unstable*: some observers
// still hear it, so the configuration change must wait until the unstable
// region drains (the subject either crosses H or its accusations retract).
//
// This implementation adapts Rapid's drain rule to the adversarial regimes
// the chaos layer generates (one-way loss, bit-rot): instead of waiting
// indefinitely, the proposer arbitrates lingering subjects with direct
// probes (see the Node), and the detector supplies the two signals that
// arbitration needs — how long a subject has been accused (FirstDown) and
// how recently anyone heard it alive (LastUp). Reports expire after a TTL
// so a crashed observer's accusations cannot pin a subject forever.
//
// The detector is pure state machine — no engine, no I/O — which is what
// makes it unit-testable against synthetic alert sequences (cut_test.go).
type CutDetector struct {
	l, h int
	ttl  time.Duration

	subjects membership.Table[subjectState]
}

// subjectState is one subject's tally. A subject nobody has reported on has
// no reports map yet; the accessors read that as no accusers and never up.
type subjectState struct {
	reports   map[membership.NodeID]time.Duration // accusing observer -> report time
	firstDown time.Duration                       // oldest live report's arrival
	lastUp    time.Duration                       // most recent alive evidence, -1 if none
}

// NewCutDetector builds a detector with watermarks l <= h and a per-report
// TTL after which unrefreshed accusations lapse.
func NewCutDetector(l, h int, ttl time.Duration) *CutDetector {
	c := &CutDetector{ttl: ttl}
	c.Reset(l, h)
	return c
}

// subject returns subject's tally, starting an empty one on first mention.
func (c *CutDetector) subject(subject membership.NodeID) *subjectState {
	s := c.subjects.Ensure(subject)
	if s.reports == nil {
		s.reports = make(map[membership.NodeID]time.Duration)
		s.lastUp = -1
	}
	return s
}

// Down records observer's accusation of subject at time now, refreshing the
// report's TTL if it already exists.
func (c *CutDetector) Down(subject, observer membership.NodeID, now time.Duration) {
	s := c.subject(subject)
	if len(s.reports) == 0 {
		s.firstDown = now
	}
	s.reports[observer] = now
}

// Up retracts observer's accusation of subject (if any) and stamps the
// subject's last-alive evidence: somebody heard it.
func (c *CutDetector) Up(subject, observer membership.NodeID, now time.Duration) {
	s := c.subject(subject)
	delete(s.reports, observer)
	s.lastUp = now
}

// Vouch clears every accusation of subject — the arbitration probe proved
// it alive — and stamps its last-alive evidence. Fresh accusations restart
// the count from zero.
func (c *CutDetector) Vouch(subject membership.NodeID, now time.Duration) {
	s := c.subject(subject)
	clear(s.reports)
	s.lastUp = now
}

// LastUp returns when subject was last heard alive by anyone, or -1 never.
func (c *CutDetector) LastUp(subject membership.NodeID) time.Duration {
	if s := c.subjects.Get(subject); s != nil && s.reports != nil {
		return s.lastUp
	}
	return -1
}

// FirstDown returns when subject's current run of accusations began — the
// report that opened the (still open) cut — or -1 if it has none. Report
// refreshes do not advance it; only draining to zero resets it.
func (c *CutDetector) FirstDown(subject membership.NodeID) time.Duration {
	if s := c.subjects.Get(subject); s != nil && len(s.reports) > 0 {
		return s.firstDown
	}
	return -1
}

// count returns the number of distinct observers currently accusing subject.
func (c *CutDetector) count(subject membership.NodeID) int {
	if s := c.subjects.Get(subject); s != nil {
		return len(s.reports)
	}
	return 0
}

// Classify expires lapsed reports and splits the accused subjects into the
// stable (count >= H) and unstable (L <= count < H) regions, both in
// ascending node ID order so downstream iteration is deterministic.
// Subjects below L are background noise and classify as neither.
func (c *CutDetector) Classify(now time.Duration) (stable, unstable []membership.NodeID) {
	c.subjects.Each(func(subject membership.NodeID, s *subjectState) {
		for obs, at := range s.reports {
			if c.ttl > 0 && now-at > c.ttl {
				delete(s.reports, obs)
			}
		}
		// firstDown deliberately stays at the accusation that opened the
		// cut: re-alerts refresh report TTLs without resetting the age
		// signal arbitration gates on.
		switch {
		case len(s.reports) >= c.h:
			stable = append(stable, subject)
		case len(s.reports) >= c.l:
			unstable = append(unstable, subject)
		}
	})
	return stable, unstable
}

// Reset drops every tally and installs new watermarks l <= h; called when a
// new configuration installs (the overlay's edges, and therefore every
// report's meaning, changed).
func (c *CutDetector) Reset(l, h int) {
	c.l, c.h = max(l, 1), max(h, l, 1)
	c.subjects.Each(func(_ membership.NodeID, s *subjectState) { *s = subjectState{} })
}
