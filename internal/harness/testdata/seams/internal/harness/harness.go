package harness

import "slices"

// A text grep catches a comparison and a case.
func isGossip(s Scheme) bool { return s == Gossip } // want scheme

func label(s Scheme) string {
	switch s {
	case AllToAll: // want scheme
		return "flat"
	}
	return ""
}

// It misses a list, and the String() of a parenthesised constant.
func dcAware(s Scheme) bool { return slices.Contains([]Scheme{RapidDC}, s) } // want scheme

func isRapidDC(name string) bool { return name == (RapidDC).String() } // want scheme

func (s Scheme) String() string { return "" }

// Passing a constant is no decision: not reported.
func pick() Scheme { return Gossip }
