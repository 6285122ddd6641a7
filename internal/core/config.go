package core

import (
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

	// ElectionPatience is how long a node must observe a leaderless group
	// before contending; it also delays elections right after joining a
	// channel so existing heartbeats can arrive first.
	ElectionPatience time.Duration

	// LevelGrace is the extra per-level lifetime of information relayed by
	// a dead leader: entries relayed through a level-L leader are purged
	// LevelGrace*(L+1) after the leader is declared dead, giving lower
	// levels time to elect a replacement (Timeout Protocol: "higher level
	// groups are assigned with larger timeout values").
	LevelGrace time.Duration

	// RepublishInterval is the anti-entropy period: every interval, each
	// node that leads some group multicasts its full directory on every
	// channel it has joined, repairing any one-shot exchange whose packets
	// were all lost. Zero disables republication (the protocol then relies
	// solely on the paper's event-driven mechanisms).
	RepublishInterval time.Duration

	// TombstoneTTL is how long a removed node's relayed re-addition is
	// rejected, so a stale snapshot cannot resurrect a dead node; direct
	// heartbeats (proof of life), higher incarnations, and advanced
	// heartbeat counters always override.
	TombstoneTTL time.Duration

	// RelayedTTL is the maximum time a relayed directory entry survives
	// without fresh evidence of life (an advancing heartbeat counter
	// carried by updates or republished snapshots). It must exceed the
	// tree depth times RepublishInterval so evidence can propagate; it is
	// the mechanism that lets every node eventually purge a partitioned
	// subtree (Timeout Protocol). Zero disables.
	RelayedTTL time.Duration

	// Adaptive enables the self-organizing hierarchy (docs/ADAPTIVE.md):
	// overloaded leaders abdicate to the least-loaded member, groups whose
	// live size drifts outside [GroupMin, GroupMax] split or merge through
	// epoch-guarded re-formation rounds. Default off: a non-adaptive node
	// sends no adaptive packets and draws no extra randomness, so every
	// pre-existing run stays byte-identical.
	Adaptive bool

	// LoadWatermark is the sustained relay load (external load units set
	// by the host plus live fan-out across led levels) above which an
	// adaptive leader abdicates. Zero disables shedding. Regardless of
	// Adaptive, a node with nonzero external load above the watermark
	// starves its relay duties (level>=1 heartbeats, directory publishes,
	// upward update relays) — that is the overload model; Adaptive only
	// changes the response.
	LoadWatermark int

	// LoadWindow is how long the load must stay above LoadWatermark before
	// an adaptive leader sheds leadership.
	LoadWindow time.Duration

	// GroupMin / GroupMax bound the live level-0 group size an adaptive
	// hierarchy converges back to: a group sustaining more than GroupMax
	// live members splits (the upper half of the ID order moves to a fresh
	// channel), and a split-off group sustaining fewer than GroupMin live
	// members merges back onto its parent channel.
	GroupMin, GroupMax int

	// ReformHold is how long a group's live size must stay out of bounds
	// before its leader initiates a re-formation round; it must comfortably
	// exceed bootstrap/election transients.
	ReformHold time.Duration

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

// DefaultConfig returns the paper's experiment configuration.
func DefaultConfig() Config {
	return Config{
		BaseChannel:       1,
		MaxTTL:            4,
		HeartbeatInterval: time.Second,
		MaxLoss:           5,
		PiggybackDepth:    3,
		ElectionPatience:  2 * time.Second,
		LevelGrace:        3 * time.Second,
		RepublishInterval: 10 * time.Second,
		TombstoneTTL:      10 * time.Second,
		RelayedTTL:        40 * time.Second,
	}
}

// AdaptiveDefaults returns DefaultConfig with the self-organizing
// hierarchy enabled and the watermarks used by the chaos matrix's
// adaptive cells: shedding above 12 load units sustained for 5 s, group
// bounds [2, 12] held for 6 s before a re-formation round, and fresh
// split channels drawn from 64 up.
func AdaptiveDefaults() Config {
	c := DefaultConfig()
	c.Adaptive = true
	c.LoadWatermark = 12
	c.LoadWindow = 5 * time.Second
	c.GroupMin = 2
	c.GroupMax = 12
	c.ReformHold = 6 * time.Second
	c.ReformChannelBase = 64
	return c
}

// DeadAfter is the silence duration after which a level-0 group mate is
// declared dead.
func (c Config) DeadAfter() time.Duration {
	return time.Duration(c.MaxLoss) * c.HeartbeatInterval
}

// DeadAfterLevel is the per-level silence threshold: higher levels tolerate
// more missed heartbeats so lower-level elections finish first.
func (c Config) DeadAfterLevel(level int) time.Duration {
	return time.Duration(c.MaxLoss+level*levelTimeoutStep) * c.HeartbeatInterval
}

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

func (c Config) validate() {
	if c.MaxTTL < 1 {
		panic("core: MaxTTL must be >= 1")
	}
	if c.HeartbeatInterval <= 0 {
		panic("core: HeartbeatInterval must be positive")
	}
	if c.MaxLoss < 1 {
		panic("core: MaxLoss must be >= 1")
	}
	if c.PiggybackDepth < 0 {
		panic("core: PiggybackDepth must be >= 0")
	}
	if c.Adaptive {
		if c.GroupMax > 0 && c.GroupMin > c.GroupMax {
			panic("core: GroupMin must not exceed GroupMax")
		}
		if c.GroupMax > 0 && c.ReformChannelBase == 0 {
			panic("core: re-formation needs a ReformChannelBase")
		}
		for l := 0; l < c.MaxTTL && c.ReformChannelBase != 0; l++ {
			if c.channel(l) == c.ReformChannelBase {
				panic("core: ReformChannelBase collides with a level channel")
			}
		}
	}
}
