package core

// Stats are one node's protocol counters since Start, for monitoring and
// experiment introspection. All counters are monotone while the node runs;
// Stop preserves them and a subsequent Start resets them.
type Stats struct {
	// HeartbeatsSent / HeartbeatsReceived count in-group announcements
	// across all levels.
	HeartbeatsSent     uint64
	HeartbeatsReceived uint64
	// UpdatesOriginated counts membership changes this node detected and
	// announced; UpdatesRelayed counts foreign updates re-multicast into
	// other groups; UpdatesApplied counts distinct updates applied.
	UpdatesOriginated uint64
	UpdatesRelayed    uint64
	UpdatesApplied    uint64
	// DuplicateUpdates counts updates discarded by UID dedup — the price
	// of the loop-free flood.
	DuplicateUpdates uint64
	// BootstrapsServed counts directory transfers served to joiners;
	// SyncsRequested counts full synchronizations this node had to ask
	// for after unrecoverable update loss.
	BootstrapsServed uint64
	SyncsRequested   uint64
	// Elections counts leadership acquisitions; Abdications counts
	// leaderships ceded to a lower-ID leader.
	Elections   uint64
	Abdications uint64
	// MembersExpired counts direct group mates declared dead.
	MembersExpired uint64
	// RelayedPurged counts entries removed by the timeout protocol
	// (relayer death cascade or stale liveness evidence).
	RelayedPurged uint64
	// PacketsRejected counts received packets discarded by the hardening
	// layer: undecodable bytes, senders with impossible identities, and
	// heartbeats whose (incarnation, sequence) did not advance — i.e.
	// replayed, duplicated, or stale-delivered traffic.
	PacketsRejected uint64
	// Self-organizing hierarchy counters (docs/ADAPTIVE.md). LoadSheds
	// counts leaderships abdicated for sustained overload; Reformations
	// counts re-formation actions (initiated split/merge rounds plus
	// channel moves performed); RelaysStarved counts relay duties (level>=1
	// heartbeats, directory publishes, upward update emissions) suppressed
	// by the overload model.
	LoadSheds     uint64
	Reformations  uint64
	RelaysStarved uint64
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Add accumulates o into s, counter by counter (cluster totals).
func (s *Stats) Add(o Stats) {
	s.HeartbeatsSent += o.HeartbeatsSent
	s.HeartbeatsReceived += o.HeartbeatsReceived
	s.UpdatesOriginated += o.UpdatesOriginated
	s.UpdatesRelayed += o.UpdatesRelayed
	s.UpdatesApplied += o.UpdatesApplied
	s.DuplicateUpdates += o.DuplicateUpdates
	s.BootstrapsServed += o.BootstrapsServed
	s.SyncsRequested += o.SyncsRequested
	s.Elections += o.Elections
	s.Abdications += o.Abdications
	s.MembersExpired += o.MembersExpired
	s.RelayedPurged += o.RelayedPurged
	s.PacketsRejected += o.PacketsRejected
	s.LoadSheds += o.LoadSheds
	s.Reformations += o.Reformations
	s.RelaysStarved += o.RelaysStarved
}
