package metrics

import (
	"math/bits"
	"time"
)

// histSubBits fixes the log-linear histogram precision: each power-of-two
// octave is split into 2^histSubBits linear sub-buckets, bounding the
// relative quantile error at 2^-histSubBits (6.25%).
const histSubBits = 4

// histBuckets covers every non-negative int64 duration: the widest value
// (2^63-1 ns) lands at shift 63-histSubBits, so the index space is
// (63-histSubBits)*2^histSubBits + 2^(histSubBits+1).
const histBuckets = (63-histSubBits)<<histSubBits + 1<<(histSubBits+1)

// Histogram is a deterministic log-linear latency histogram (HDR-style):
// recording is O(1) into a fixed array, quantiles are read from bucket upper
// bounds, and identical sequences of Record calls always produce identical
// quantiles — no sampling, no randomization — which is what lets traffic
// reports stay byte-identical across worker counts.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	max    time.Duration
}

// histIndex maps a non-negative duration to its bucket.
func histIndex(v time.Duration) int {
	u := uint64(v)
	h := bits.Len64(u) - 1 // position of the highest set bit; -1 for v==0
	shift := h - histSubBits
	if shift < 0 {
		return int(u) // values below 2^histSubBits are exact
	}
	// The sub-bucket (u>>shift) lies in [2^histSubBits, 2^(histSubBits+1)).
	return shift<<histSubBits + int(u>>uint(shift))
}

// histUpper returns the inclusive upper bound of bucket i — the value
// Quantile reports for ranks that land in it.
func histUpper(i int) time.Duration {
	if i < 1<<(histSubBits+1) {
		return time.Duration(i)
	}
	shift := (i - 1<<histSubBits) >> histSubBits
	sub := i - shift<<histSubBits
	return time.Duration(uint64(sub+1)<<uint(shift) - 1)
}

// Record adds one observation. Negative durations are clamped to zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(d)]++
	h.total++
	if d > h.max {
		h.max = d
	}
}

// count returns the number of recorded observations.
func (h *Histogram) count() uint64 { return h.total }

// Max returns the largest recorded observation exactly.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) that is at
// most 6.25% above the true value, clamped to the exact maximum. It returns
// zero when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histUpper(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
