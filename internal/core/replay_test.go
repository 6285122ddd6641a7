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
			if heard := observer.levels[tc.level].member(victim.ID()) != nil; !heard || !victim.levels[tc.level].joined {
				t.Fatalf("node %v does not hear the victim on level %d", observer.ID(), tc.level)
			}
			victim.Stop()
			c.run(30 * time.Second)
			if heard := observer.levels[tc.level].member(victim.ID()) != nil; heard || observer.Directory().Has(victim.ID()) {
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
			heard := observer.levels[tc.level].member(victim.ID()) != nil
			if present := observer.Directory().Has(victim.ID()); present != tc.accepted || heard != tc.accepted ||
				(rejects == 0) != tc.accepted || rejects != rejectsNet {
				t.Fatalf("present = %v, heard = %v, %d/%d rejects, want accepted = %v", present, heard, rejects, rejectsNet, tc.accepted)
			}
		})
	}
}

// TestGuardsOutliveSessions: the mate's expiry and this node's restart each
// end the session half of a mate record — the mate is out of the group view
// and the view's size says so — and leave the guard half alone: the last
// heartbeat replayed is still rejected, a replayed update message does not
// rewind the stream's sequence, and the gap to a far later one is still
// measured from the true mark.
func TestGuardsOutliveSessions(t *testing.T) {
	for _, ending := range []string{"the mate expires", "the observer restarts"} {
		t.Run(ending, func(t *testing.T) {
			top := topology.Clustered(2, 4)
			cfg := cfgFor(top)
			c := newCluster(top, cfg)
			c.startAll()
			c.run(20 * time.Second)
			c.nodes[2].Stop() // a death for the leaders to relay as updates
			c.run(20 * time.Second)
			mateNode, observer := c.nodes[4], c.nodes[5] // group 1's leader and a follower
			lv := observer.levels[0]
			rec := lv.member(mateNode.ID())
			if rec == nil || rec.updSeq == 0 || !rec.leader {
				t.Fatalf("the observer's record of its leader is %+v", rec)
			}
			guards, size := rec.mateGuards, lv.members
			lastBeat := wire.Encode(&wire.Heartbeat{
				Info:   membership.MemberInfo{Node: mateNode.ID(), Incarnation: mateNode.info.Incarnation},
				Backup: membership.NoNode,
				Seq:    mateNode.levels[0].hbSeq,
			})
			update := func(seq uint64) []byte {
				return wire.Encode(&wire.UpdateMsg{Sender: mateNode.ID(), Seq: seq, Updates: []wire.Update{
					{ID: wire.UpdateID{Origin: mateNode.ID(), Counter: 1 << 30}, Kind: wire.ULeave, Subject: 2},
				}})
			}

			if ending == "the mate expires" {
				mateNode.Stop()
				c.run(30 * time.Second)
				if lv.members != size-1 {
					t.Fatalf("the group view holds %d mates, want %d", lv.members, size-1)
				}
			} else {
				observer.Stop()
				for _, l := range observer.levels {
					l.mates.Each(func(id membership.NodeID, m *mate) {
						if l.members != 0 || m.mateSession != (mateSession{}) {
							t.Fatalf("level %d: %d mates in view, %v's session is %+v", l.level, l.members, id, m.mateSession)
						}
					})
				}
				observer.Start(c.eng)
			}
			if rec.mateSession != (mateSession{}) || rec.mateGuards != guards {
				t.Fatalf("the record is %+v; want no session and guards %+v", *rec, guards)
			}

			deliver := func(payload []byte) {
				observer.Receive(netsim.Packet{Src: topology.HostID(mateNode.ID()), Dst: topology.NoHost, Channel: cfg.channel(0), TTL: 1, Payload: payload})
			}
			before := observer.Stats()
			deliver(lastBeat)
			deliver(update(guards.updSeq - 1))
			if got := observer.Stats(); got.PacketsRejected != before.PacketsRejected+1 || got.SyncsRequested != before.SyncsRequested ||
				lv.member(mateNode.ID()) != nil || rec.mateGuards != guards {
				t.Fatalf("the replays drew %d rejects and %d syncs and left %+v", got.PacketsRejected-before.PacketsRejected, got.SyncsRequested-before.SyncsRequested, *rec)
			}
			deliver(update(guards.updSeq + 50))
			if got := observer.Stats(); got.SyncsRequested != before.SyncsRequested+1 {
				t.Fatal("a 50-message gap in a known stream asked for no sync: the sequence mark was lost")
			}
		})
	}
}
