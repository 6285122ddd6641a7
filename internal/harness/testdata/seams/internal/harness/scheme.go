// Package harness is the fixture's scheme and figure tables: in scheme.go
// the Scheme constants may be compared and listed, so nothing here is
// reported.
package harness

type Scheme int

const (
	AllToAll Scheme = iota
	Gossip
	RapidDC
)

var ChaosSchemes = []Scheme{AllToAll, Gossip, RapidDC}

func (s Scheme) Flat() bool { return s == AllToAll }
