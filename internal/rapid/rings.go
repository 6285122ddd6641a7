package rapid

import (
	"slices"

	"repro/internal/membership"
)

// The monitoring overlay is Rapid's K-ring expander: K independent
// pseudorandom permutations of the configuration's member list, where in
// each ring every node observes its successor. A subject is therefore
// monitored by (up to) K distinct observers, and the edge set is a function
// of nothing but (configuration sequence, ring index, member list) — every
// member derives the same rings locally, with no negotiation, and the rings
// reshuffle wholesale at each view change.
//
// The derivation must NOT draw from the simulation engine's RNG: different
// nodes adopt a configuration at different virtual times but must agree on
// the edges, so the shuffle runs on a keyed splitmix64 stream seeded from
// the configuration identity alone.

// splitmix64 is the keyed PRNG stream for ring derivation (Steele et al.;
// the canonical seed-expansion generator, 64 bits of state, full period).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ringSeed keys ring r of configuration seq over members: FNV-1a over the
// tuple, matching the repo's seed-derivation idiom (harness.DeriveSeed).
func ringSeed(seq uint64, ring int, members []membership.NodeID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(seq)
	mix(uint64(ring))
	for _, m := range members {
		mix(uint64(uint32(m)))
	}
	return h
}

// deriveRingsDC computes self's edge sets in the K-ring overlay of
// configuration seq: observers is who monitors self (the targets of its
// beats), subjects is who self monitors. Both come back sorted and
// deduplicated (distinct rings can repeat an edge), and never contain self.
// members must be sorted; k is clamped to len(members)-1.
//
// dcOf is an optional locality hint. With a nil dcOf every ring is a global
// permutation. Otherwise ring 0 stays global — it alone guarantees the
// overlay is one connected expander, so a whole-DC failure is still observed
// from outside — while rings 1..k-1 cycle within each data center, keeping
// K-1 of every member's K monitoring edges (and their steady heartbeat load)
// off the WAN links. Members whose DC has no other member pool into a shared
// remainder cycle so nobody loses rings.
//
// The edges are a pure function of (seq, ring, member list) plus dcOf —
// which must be the same pure function at every node — so all members agree
// on them with no negotiation.
func deriveRingsDC(seq uint64, k int, members []membership.NodeID, self membership.NodeID, dcOf func(membership.NodeID) int) (observers, subjects []membership.NodeID) {
	n := len(members)
	if n < 2 {
		return nil, nil
	}
	if k > n-1 {
		k = n - 1
	}
	cycle := func(r int, group []membership.NodeID) {
		m := len(group)
		if m < 2 {
			return
		}
		perm := append([]membership.NodeID(nil), group...)
		// The seed hashes the group's own member list, so each DC's cycle
		// draws from its own keyed stream.
		rng := splitmix64(ringSeed(seq, r, group))
		// Fisher-Yates with the keyed stream; modulo bias is irrelevant
		// here (uniformity only needs to be good enough for expansion).
		for i := m - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, id := range perm {
			if id != self {
				continue
			}
			if succ := perm[(i+1)%m]; succ != self {
				subjects = append(subjects, succ)
			}
			if pred := perm[(i+m-1)%m]; pred != self {
				observers = append(observers, pred)
			}
			break
		}
	}
	var groups map[int][]membership.NodeID
	var rest []membership.NodeID // singleton-DC members, cycled together
	if dcOf != nil {
		groups = make(map[int][]membership.NodeID)
		for _, m := range members {
			dc := dcOf(m)
			groups[dc] = append(groups[dc], m)
		}
		for dc, g := range groups {
			if len(g) < 2 {
				rest = append(rest, g...)
				delete(groups, dc)
			}
		}
		slices.Sort(rest)
	}
	for r := 0; r < k; r++ {
		if dcOf == nil || r == 0 {
			cycle(r, members)
			continue
		}
		for _, g := range groups {
			cycle(r, g)
		}
		cycle(r, rest)
	}
	slices.Sort(observers)
	slices.Sort(subjects)
	return slices.Compact(observers), slices.Compact(subjects)
}

// contains reports whether sorted holds id.
func contains(sorted []membership.NodeID, id membership.NodeID) bool {
	_, found := slices.BinarySearch(sorted, id)
	return found
}
