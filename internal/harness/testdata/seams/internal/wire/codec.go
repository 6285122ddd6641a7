// Package wire is the fixture's codec.
package wire

type reader struct{ off int }

type codec struct{ r reader }

// The three allowed: not reported.
func decInfoList(r *reader) int { return r.off }

func skipInfo(r *reader) { r.off++ }

func skipKVs(r *reader) { r.off++ }

// A text grep catches a *reader parameter.
func decBeat(r *reader) int { return r.off } // want wire

// It misses a codec receiver.
func (c *codec) encBeat() { c.r.off++ } // want wire

// Not enc*, dec* or skip*, or no reader or codec: not reported.
func (c *codec) u8() { c.r.off++ }

func decode(b []byte) int { return len(b) }
