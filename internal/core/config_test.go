package core

import (
	"testing"
	"time"
)

// TestTimersCountHeartbeats pins the protocol timers to fixed multiples of
// the heartbeat: the paper's 1 s configuration, and the 50 ms one the
// real-UDP example runs.
func TestTimersCountHeartbeats(t *testing.T) {
	for _, tc := range []struct {
		hb   time.Duration
		want [5]time.Duration // election patience, level grace, republish, tombstone, relayed TTL
	}{
		{time.Second, [5]time.Duration{2 * time.Second, 3 * time.Second, 10 * time.Second, 10 * time.Second, 40 * time.Second}},
		{50 * time.Millisecond, [5]time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}},
	} {
		cfg := DefaultConfig()
		cfg.HeartbeatInterval = tc.hb
		got := [5]time.Duration{cfg.electionPatience(), cfg.levelGrace(), cfg.republishInterval(), cfg.tombstoneTTL(), cfg.RelayedTTL()}
		if got != tc.want {
			t.Errorf("heartbeat %v: timers %v, want %v", tc.hb, got, tc.want)
		}
	}
	// The adaptive settle term: load window 5 + reform hold 6 + election
	// patience 2 + republish 10 heartbeats.
	if got := AdaptiveDefaults().ReformSettle(); got != 23*time.Second {
		t.Errorf("ReformSettle = %v, want 23s", got)
	}
}
