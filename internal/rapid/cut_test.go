package rapid

import (
	"testing"
	"time"

	"repro/internal/membership"
)

// TestCutSingleFailure drives the watermark filter through the clean-death
// sequence: accusations climb past L (unstable) and then past H (stable),
// exactly once each, with deterministic classification.
func TestCutSingleFailure(t *testing.T) {
	c := NewCutDetector(2, 7, 12*time.Second)
	subject := membership.NodeID(9)
	for i := 0; i < 8; i++ {
		c.Down(subject, membership.NodeID(10+i), time.Duration(i)*time.Second)
		stable, unstable := c.Classify(time.Duration(i) * time.Second)
		count := i + 1
		switch {
		case count < 2:
			if len(stable)+len(unstable) != 0 {
				t.Fatalf("count=%d: classified too early: stable=%v unstable=%v", count, stable, unstable)
			}
		case count < 7:
			if len(unstable) != 1 || unstable[0] != subject || len(stable) != 0 {
				t.Fatalf("count=%d: want unstable=[%d], got stable=%v unstable=%v", count, subject, stable, unstable)
			}
		default:
			if len(stable) != 1 || stable[0] != subject || len(unstable) != 0 {
				t.Fatalf("count=%d: want stable=[%d], got stable=%v unstable=%v", count, subject, stable, unstable)
			}
		}
	}
	if fd := c.FirstDown(subject); fd != 0 {
		t.Fatalf("FirstDown = %v, want 0 (oldest live report)", fd)
	}
	if c.count(subject) != 8 {
		t.Fatalf("Count = %d, want 8", c.count(subject))
	}
}

// TestCutCorrelatedGroupFailure kills a whole group at once: every subject
// has only its surviving observers, so counts park between L and H and the
// subjects classify as a persistent unstable region (the case the
// proposer's arbitration probes must resolve) — never as stable.
func TestCutCorrelatedGroupFailure(t *testing.T) {
	c := NewCutDetector(2, 7, 12*time.Second)
	subjects := []membership.NodeID{8, 9, 10, 11}
	// Each subject accused by 4 distinct survivors: L <= 4 < H.
	for si, s := range subjects {
		for o := 0; o < 4; o++ {
			c.Down(s, membership.NodeID(20+o), time.Duration(si)*time.Second)
		}
	}
	stable, unstable := c.Classify(4 * time.Second)
	if len(stable) != 0 {
		t.Fatalf("correlated failure reached stable without H accusers: %v", stable)
	}
	if len(unstable) != len(subjects) {
		t.Fatalf("unstable=%v, want all of %v", unstable, subjects)
	}
	for i, s := range unstable {
		if s != subjects[i] {
			t.Fatalf("unstable not sorted deterministically: %v", unstable)
		}
	}
	// Arbitration resolves one subject alive: the vouch clears its count
	// and it leaves the cut entirely.
	c.Vouch(subjects[0], 5*time.Second)
	stable, unstable = c.Classify(5 * time.Second)
	if len(unstable) != len(subjects)-1 || unstable[0] != subjects[1] {
		t.Fatalf("after vouch: unstable=%v", unstable)
	}
	if lu := c.LastUp(subjects[0]); lu != 5*time.Second {
		t.Fatalf("vouch did not stamp LastUp: %v", lu)
	}
}

// TestCutFlappingReporter oscillates one observer's verdict DOWN/UP: the
// count must track the retractions exactly, the subject must never linger
// in the cut after an UP, and the UP evidence must accumulate in LastUp —
// the signal the up-quiet veto uses to refuse confirmation.
func TestCutFlappingReporter(t *testing.T) {
	c := NewCutDetector(1, 3, 12*time.Second)
	subject, flapper := membership.NodeID(5), membership.NodeID(6)
	for cycle := 0; cycle < 4; cycle++ {
		at := time.Duration(cycle*10) * time.Second
		c.Down(subject, flapper, at)
		if _, unstable := c.Classify(at); len(unstable) != 1 {
			t.Fatalf("cycle %d: DOWN not registered", cycle)
		}
		c.Up(subject, flapper, at+5*time.Second)
		stable, unstable := c.Classify(at + 5*time.Second)
		if len(stable)+len(unstable) != 0 {
			t.Fatalf("cycle %d: subject still cut after retraction: %v %v", cycle, stable, unstable)
		}
		if lu := c.LastUp(subject); lu != at+5*time.Second {
			t.Fatalf("cycle %d: LastUp=%v want %v", cycle, lu, at+5*time.Second)
		}
	}
	// A second, steady accuser must not be erased by the flapper's UPs.
	c.Down(subject, membership.NodeID(7), 40*time.Second)
	c.Up(subject, flapper, 41*time.Second)
	if c.count(subject) != 1 {
		t.Fatalf("steady accuser lost: count=%d", c.count(subject))
	}
}

// TestCutReportTTL lets accusations lapse: a crashed observer's DOWN must
// not pin a subject in the cut forever.
func TestCutReportTTL(t *testing.T) {
	c := NewCutDetector(1, 3, 10*time.Second)
	c.Down(3, 4, 0)
	if _, unstable := c.Classify(9 * time.Second); len(unstable) != 1 {
		t.Fatal("report expired early")
	}
	if stable, unstable := c.Classify(11 * time.Second); len(stable)+len(unstable) != 0 {
		t.Fatal("report outlived its TTL")
	}
	if fd := c.FirstDown(3); fd != -1 {
		t.Fatalf("FirstDown after lapse = %v, want -1", fd)
	}
	// A fresh accusation restarts the age clock rather than inheriting
	// the lapsed one.
	c.Down(3, 4, 20*time.Second)
	if fd := c.FirstDown(3); fd != 20*time.Second {
		t.Fatalf("FirstDown after fresh accusation = %v, want 20s", fd)
	}
}

// TestRingsDeterministicAndCovering pins the overlay derivation: identical
// inputs produce identical edges on every node, different configurations
// reshuffle, and each member gets the full K distinct observers when the
// cluster is large enough.
func TestRingsDeterministicAndCovering(t *testing.T) {
	members := make([]membership.NodeID, 24)
	for i := range members {
		members[i] = membership.NodeID(i)
	}
	// Observer/subject sets must be mutually consistent across nodes: if
	// a derives b as subject, b must derive a as observer.
	type edge struct{ o, s membership.NodeID }
	fromObs, fromSub := map[edge]bool{}, map[edge]bool{}
	for _, self := range members {
		obs, subs := deriveRingsDC(7, 8, members, self, nil)
		obs2, subs2 := deriveRingsDC(7, 8, members, self, nil)
		if len(obs) != len(obs2) || len(subs) != len(subs2) {
			t.Fatal("derivation not deterministic")
		}
		for i := range obs {
			if obs[i] != obs2[i] {
				t.Fatal("observer sets differ across derivations")
			}
		}
		// K=8 draws with replacement from 23 peers: expect ~7 distinct
		// observers, collisions can dip lower.
		if len(obs) < 4 || len(obs) > 8 {
			t.Fatalf("node %d has %d observers, want ~K=8", self, len(obs))
		}
		for _, o := range obs {
			fromObs[edge{o, self}] = true
		}
		for _, s := range subs {
			fromSub[edge{self, s}] = true
		}
	}
	if len(fromObs) != len(fromSub) {
		t.Fatalf("edge sets disagree: %d vs %d", len(fromObs), len(fromSub))
	}
	for e := range fromObs {
		if !fromSub[e] {
			t.Fatalf("edge %v derived by subject but not by observer", e)
		}
	}
	// A different configuration sequence must reshuffle the overlay.
	same := true
	for _, self := range members[:4] {
		a, _ := deriveRingsDC(7, 8, members, self, nil)
		b, _ := deriveRingsDC(8, 8, members, self, nil)
		if len(a) != len(b) {
			same = false
			break
		}
		for i := range a {
			if a[i] != b[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("configurations 7 and 8 derived identical overlays")
	}
}
