// Package membership is the fixture's data model.
package membership

type NodeID int32

type MemberInfo struct {
	Node        NodeID
	Incarnation uint32
}

type InfoPrefix struct {
	Node        NodeID
	Incarnation uint32
}

// Inside membership a bump is the daemon's own: not reported.
func (m *MemberInfo) Begin() { m.Incarnation++ }
