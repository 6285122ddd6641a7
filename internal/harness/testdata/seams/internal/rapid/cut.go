// Package rapid holds the fixture's peer-state fields.
package rapid

import "seams/internal/membership"

// subjectState.reports is allowed: not reported.
type subjectState struct {
	reports map[membership.NodeID]int64
}

type peers map[membership.NodeID]int

type Node struct {
	// A text grep catches a field written map[membership.NodeID]...
	alerts map[membership.NodeID]int // want peer
	// It misses two names on one line, and a named map type, as a field or
	// embedded.
	a, b  map[membership.NodeID]bool // want peer peer
	view  peers                      // want peer
	peers                            // want peer
	// Keyed by something else: not reported.
	edges map[[2]membership.NodeID]int
}
