package membership

// Table.wild is allowed: not reported.
type Table[T any] struct {
	dense []*T
	wild  map[NodeID]*T
}
