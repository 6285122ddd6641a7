package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
)

// Config parametrizes a hierarchical membership node. The defaults mirror
// the paper's experiment settings (§6.2): 1 Hz multicast frequency and a
// maximum of 5 consecutive losses before a node is declared dead.
type Config struct {
	// BaseChannel is the base multicast channel; the level-L group uses
	// channel BaseChannel+L with TTL L+1. The paper derives all channels
	// from one configured base channel the same way.
	BaseChannel netsim.ChannelID

	// ChannelOverride optionally assigns explicit channels to individual
	// levels, overriding the BaseChannel+L derivation — the paper's
	// "for maximum control flexibility, our implementation also allows
	// administrators to specify multicast channels at each level".
	// Every node must share the same overrides.
	ChannelOverride map[int]netsim.ChannelID

	// MaxTTL caps the group hierarchy: levels run from 0 (TTL 1) to
	// MaxTTL-1 (TTL MaxTTL). It should be at least the topology's
	// diameter so the tree covers the whole cluster.
	MaxTTL int

	// HeartbeatInterval is the in-group multicast heartbeat period
	// (MCAST_FREQ = 1 packet/second in the paper).
	HeartbeatInterval time.Duration

	// MaxLoss is how many consecutive heartbeats may be missed before a
	// group mate is declared dead (MAX_LOSS = 5).
	MaxLoss int

	// PiggybackDepth is how many previous updates ride along with each
	// update message for loss recovery (the paper uses 3).
	PiggybackDepth int

	// HeartbeatPad is the uncarried tail each heartbeat declares, so the
	// network accounts it at a configured heartbeat size (wire.Padding); 0
	// accounts the natural encoded size.
	HeartbeatPad int

	// Adaptive enables the self-organizing hierarchy (docs/ADAPTIVE.md):
	// overloaded leaders abdicate to the least-loaded member, groups whose
	// live size drifts outside [GroupMin, GroupMax] split or merge through
	// epoch-guarded re-formation rounds. Default off: a non-adaptive node
	// sends no adaptive packets and draws no extra randomness, so every
	// pre-existing run stays byte-identical.
	Adaptive bool

	// ReformChannelBase is where split-off groups draw fresh level-0
	// channels from: round epoch e uses ReformChannelBase+e. It must not
	// collide with the per-level channels or any other scheme's channels.
	ReformChannelBase netsim.ChannelID
}

// levelTimeoutStep adds this many tolerated heartbeats per tree level: a
// level-L group mate is declared dead after (MaxLoss + L*levelTimeoutStep)
// missed heartbeats. The paper: "we assign different timeout values for
// groups at different levels. Higher level groups are assigned with larger
// timeout values. Thus when a group leader fails, the lower level group can
// still have time to elect its new leader before the higher level group
// purges all the nodes of the lower level group."
const levelTimeoutStep = 2

// The protocol's other timers, counted in heartbeat periods like the
// paper's timeouts, so a node configured with a faster MCAST_FREQ runs all
// of them faster (Config's methods of the same names turn them into
// durations).
const (
	// electionPatienceBeats is how long a node must observe a leaderless
	// group before contending; it also delays elections right after joining
	// a channel so existing heartbeats can arrive first.
	electionPatienceBeats = 2
	// levelGraceBeats is the extra per-level lifetime of information relayed
	// by a dead leader: entries relayed through a level-L leader are purged
	// a republish interval plus levelGrace*(L+1) after the leader is
	// declared dead, giving lower levels time to elect a replacement
	// (Timeout Protocol: "higher level groups are assigned with larger
	// timeout values").
	levelGraceBeats = 3
	// republishBeats is the anti-entropy period: every interval, each node
	// that leads some group multicasts its full directory on every channel it
	// has joined, repairing any one-shot exchange whose packets were all
	// lost.
	republishBeats = 10
	// tombstoneBeats is how long a removed node's relayed re-addition is
	// rejected, so a stale snapshot cannot resurrect a dead node; direct
	// heartbeats (proof of life), higher incarnations, and advanced
	// heartbeat counters always override.
	tombstoneBeats = 10
	// relayedTTLBeats is the maximum time a relayed directory entry survives
	// without fresh evidence of life (an advancing heartbeat counter carried
	// by updates or republished snapshots). It exceeds the tree depth times
	// the republish interval so evidence can propagate; it is the mechanism
	// that lets every node eventually purge a partitioned subtree (Timeout
	// Protocol).
	relayedTTLBeats = 40
)

// maxTTL is the largest MaxTTL: a level's scope is an IP TTL, one byte.
const maxTTL = 255

// DefaultConfig returns the paper's experiment configuration.
func DefaultConfig() Config {
	return Config{
		BaseChannel:       1,
		MaxTTL:            4,
		HeartbeatInterval: time.Second,
		MaxLoss:           5,
		PiggybackDepth:    3,
	}
}

// AdaptiveDefaults returns DefaultConfig with the self-organizing
// hierarchy enabled (its watermarks are the constants in adaptive.go) and
// fresh split channels drawn from 64 up.
func AdaptiveDefaults() Config {
	c := DefaultConfig()
	c.Adaptive = true
	c.ReformChannelBase = 64
	return c
}

// beats is n heartbeat periods.
func (c Config) beats(n int) time.Duration {
	return time.Duration(n) * c.HeartbeatInterval
}

// DeadAfter is the silence duration after which a level-0 group mate is
// declared dead.
func (c Config) DeadAfter() time.Duration { return c.beats(c.MaxLoss) }

// DeadAfterLevel is the per-level silence threshold: higher levels tolerate
// more missed heartbeats so lower-level elections finish first.
func (c Config) DeadAfterLevel(level int) time.Duration {
	return c.beats(c.MaxLoss + level*levelTimeoutStep)
}

func (c Config) electionPatience() time.Duration  { return c.beats(electionPatienceBeats) }
func (c Config) levelGrace() time.Duration        { return c.beats(levelGraceBeats) }
func (c Config) republishInterval() time.Duration { return c.beats(republishBeats) }
func (c Config) tombstoneTTL() time.Duration      { return c.beats(tombstoneBeats) }

// RelayedTTL is how long a relayed directory entry survives without fresh
// evidence of life (relayedTTLBeats).
func (c Config) RelayedTTL() time.Duration { return c.beats(relayedTTLBeats) }

func (c Config) channel(level int) netsim.ChannelID {
	if ch, ok := c.ChannelOverride[level]; ok {
		return ch
	}
	return c.BaseChannel + netsim.ChannelID(level)
}

// levelOf is the inverse of channel: the level a received channel maps to,
// or -1 for foreign channels.
func (c Config) levelOf(ch netsim.ChannelID) int {
	for l := 0; l < c.MaxTTL; l++ {
		if c.channel(l) == ch {
			return l
		}
	}
	return -1
}

// ttl is the scope of a level's multicast group.
func ttl(level int) int { return level + 1 }

// Validate reports why a node cannot run with the configuration; NewNode
// panics on the same errors.
func (c Config) Validate() error {
	switch {
	case c.MaxTTL < 1 || c.MaxTTL > maxTTL:
		return fmt.Errorf("core: MaxTTL must be in [1, %d], got %d", maxTTL, c.MaxTTL)
	case c.HeartbeatInterval/4 <= 0:
		// joinLevel draws each level's start jitter from a quarter period.
		return fmt.Errorf("core: HeartbeatInterval must be at least 4ns, got %v", c.HeartbeatInterval)
	case c.MaxLoss < 1:
		return fmt.Errorf("core: MaxLoss must be >= 1, got %d", c.MaxLoss)
	case c.PiggybackDepth < 0:
		return errors.New("core: PiggybackDepth must be >= 0")
	}
	if c.Adaptive {
		if c.ReformChannelBase == 0 {
			return errors.New("core: re-formation needs a ReformChannelBase")
		}
		for l := 0; l < c.MaxTTL; l++ {
			if c.channel(l) == c.ReformChannelBase {
				return errors.New("core: ReformChannelBase collides with a level channel")
			}
		}
	}
	return nil
}
