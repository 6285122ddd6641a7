package core

import (
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestReplayFromExpiredMemberRejected: once a group mate has been expired, a
// replay of any heartbeat it ever sent on a channel is rejected and counted
// there, and restores neither the mate's group state nor its directory
// entry — each level's marks outlive the member. Genuinely newer evidence
// still readmits it. The victim led group 1, so its own group heard it on
// level 0 and the other group's leader on level 1.
func TestReplayFromExpiredMemberRejected(t *testing.T) {
	for _, tc := range []struct {
		name       string
		level      int
		dInc, dSeq int // offset from the last pair the victim sent on that level
		accepted   bool
	}{
		{"level 0, last heartbeat again", 0, 0, 0, false},
		{"level 0, an older sequence", 0, 0, -3, false},
		{"level 0, an older incarnation with a later sequence", 0, -1, +100, false},
		{"level 0, the next sequence", 0, 0, +1, true},
		{"level 0, a restart", 0, +1, -3, true},
		{"level 1, last heartbeat again", 1, 0, 0, false},
		{"level 1, an older sequence", 1, 0, -3, false},
		{"level 1, the next sequence", 1, 0, +1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top := topology.Clustered(2, 4)
			cfg := cfgFor(top)
			c := newCluster(top, cfg)
			c.startAll()
			victim := c.nodes[4]
			victim.Stop() // bring the victim to its second incarnation
			victim.Start(c.eng)
			c.run(20 * time.Second)
			observer := c.nodes[5]
			if tc.level == 1 {
				observer = c.nodes[0]
			}
			if _, heard := observer.levels[tc.level].members[victim.ID()]; !heard || !victim.levels[tc.level].joined {
				t.Fatalf("node %v does not hear the victim on level %d", observer.ID(), tc.level)
			}
			victim.Stop()
			c.run(30 * time.Second)
			if _, heard := observer.levels[tc.level].members[victim.ID()]; heard || observer.Directory().Has(victim.ID()) {
				t.Fatal("the stopped node was not expired")
			}
			ep := c.net.Endpoint(topology.HostID(observer.ID()))
			before, beforeNet := observer.Stats().PacketsRejected, ep.Stats().Rejected
			observer.Receive(netsim.Packet{Src: topology.HostID(victim.ID()), Dst: topology.NoHost, Channel: cfg.channel(tc.level), TTL: 1, Payload: wire.Encode(&wire.Heartbeat{
				Info:   membership.MemberInfo{Node: victim.ID(), Incarnation: uint32(int(victim.info.Incarnation) + tc.dInc)},
				Level:  uint8(tc.level),
				Backup: membership.NoNode,
				Seq:    uint64(int(victim.levels[tc.level].hbSeq) + tc.dSeq),
			})})
			rejects, rejectsNet := observer.Stats().PacketsRejected-before, ep.Stats().Rejected-beforeNet
			_, heard := observer.levels[tc.level].members[victim.ID()]
			if present := observer.Directory().Has(victim.ID()); present != tc.accepted || heard != tc.accepted ||
				(rejects == 0) != tc.accepted || rejects != rejectsNet {
				t.Fatalf("present = %v, heard = %v, %d/%d rejects, want accepted = %v", present, heard, rejects, rejectsNet, tc.accepted)
			}
		})
	}
}
