package metrics

import (
	"fmt"
	"time"
)

// TrafficStats captures the user-visible outcome of one traffic run: what a
// fault timeline cost the virtual clients, as opposed to what it cost the
// protocol. All latency quantiles come from deterministic log-linear
// histograms (see Histogram), so two runs with the same seed report
// identical numbers regardless of worker count. docs/TRAFFIC.md defines
// every field precisely.
type TrafficStats struct {
	Sessions uint64 `json:"sessions"` // sessions opened over the run
	Requests uint64 `json:"requests"` // requests issued (includes retries after migration)
	OK       uint64 `json:"ok"`       // requests answered successfully

	// Failure modes, disjoint per request. Timeouts are requests that
	// reached no live replica before the client deadline; Unavailable are
	// requests the client could not route at all (empty directory lookup);
	// Rejected are requests a live replica refused (queue overflow).
	Timeouts    uint64 `json:"timeouts"`
	Unavailable uint64 `json:"unavailable"`
	Rejected    uint64 `json:"rejected,omitempty"`

	// Misrouted counts requests sent to a replica that ground truth says
	// was already dead at send time — the directory was stale and a user
	// paid for it. Always <= Timeouts in practice, since a misrouted
	// request can only fail by timing out.
	Misrouted uint64 `json:"misrouted"`

	// Migrations counts sessions that lost their pinned replica and
	// successfully re-homed; MigP50/MigP99/MigMax describe how long users
	// were degraded: from the first failed request on the dead replica to
	// the first successful reply from the new one.
	Migrations uint64        `json:"migrations"`
	MigP50     time.Duration `json:"mig_p50_ns"`
	MigP99     time.Duration `json:"mig_p99_ns"`
	MigMax     time.Duration `json:"mig_max_ns"`

	// Request latency quantiles over every issued request, failures
	// included at their full timeout cost — the latency users saw, not the
	// latency of the requests that happened to succeed.
	ReqP50  time.Duration `json:"req_p50_ns"`
	ReqP99  time.Duration `json:"req_p99_ns"`
	ReqP999 time.Duration `json:"req_p999_ns"`

	// Relayed counts successful requests that were served through the
	// cross-DC proxy relay rather than a local replica (hierarchical+proxy
	// runs only).
	Relayed uint64 `json:"relayed,omitempty"`

	// HedgedRequests counts requests that sent a duplicate leg to a second
	// replica after traffic.Options.HedgeAfter of silence; HedgeWins counts
	// those the duplicate resolved first. Zero when hedging is off (the
	// default).
	HedgedRequests uint64 `json:"hedged_requests,omitempty"`
	HedgeWins      uint64 `json:"hedge_wins,omitempty"`
}

// String renders the compact per-run traffic suffix.
func (t TrafficStats) String() string {
	s := fmt.Sprintf("req=%d ok=%d misrouted=%d migrations=%d p99=%v p999=%v",
		t.Requests, t.OK, t.Misrouted, t.Migrations, t.ReqP99, t.ReqP999)
	if t.Relayed > 0 {
		s += fmt.Sprintf(" relayed=%d", t.Relayed)
	}
	if t.HedgedRequests > 0 {
		s += fmt.Sprintf(" hedged=%d wins=%d", t.HedgedRequests, t.HedgeWins)
	}
	return s
}
