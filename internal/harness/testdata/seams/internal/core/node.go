// Package core holds the fixture's daemon writes and shared state.
package core

import (
	"sync"

	"seams/internal/membership"
)

type Node struct {
	info   membership.MemberInfo
	prefix membership.InfoPrefix
}

func (n *Node) restart() {
	// A text grep catches an increment.
	n.info.Incarnation++ // want daemon
	// It misses a plain assignment.
	n.prefix.Incarnation = n.prefix.Incarnation + 1 // want daemon
}

// Building a record, or lending a field's address, is no bump: not reported.
func (n *Node) fresh() membership.MemberInfo {
	lend(&n.info.Incarnation)
	return membership.MemberInfo{Incarnation: 1}
}

func lend(*uint32) {}

// A text grep catches sync.Pool spelled out.
var buffers sync.Pool // want shared
