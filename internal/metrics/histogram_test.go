package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for i := 0; i < 16; i++ {
		h.Record(time.Duration(i))
	}
	if h.total != 16 {
		t.Fatalf("count = %d, want 16", h.total)
	}
	// Values below 2^histSubBits are stored exactly.
	if got := h.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %v, want 15", got)
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %v, want 7", got)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mix of scales: microseconds through tens of seconds.
		v := time.Duration(rng.Int63n(int64(30 * time.Second)))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		rank := int(q * float64(len(vals)))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%v: histogram %v below exact %v", q, got, exact)
		}
		if exact > 0 && float64(got-exact)/float64(exact) > 1.0/float64(int(1)<<histSubBits) {
			t.Errorf("q=%v: histogram %v exceeds exact %v by more than %.2f%%",
				q, got, exact, 100.0/float64(int(1)<<histSubBits))
		}
	}
}

func TestHistogramMaxClamp(t *testing.T) {
	var h Histogram
	h.Record(1_000_000_007) // lands mid-bucket; upper bound exceeds it
	if got := h.Quantile(0.999); got != 1_000_000_007 {
		t.Errorf("p999 = %v, want exact max 1000000007", got)
	}
	if h.Max() != 1_000_000_007 {
		t.Errorf("max = %v", h.Max())
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Record(-5)
	if h.Quantile(1.0) != 0 {
		t.Error("negative durations clamp to zero")
	}
}

func TestHistogramIndexBounds(t *testing.T) {
	// Every representable duration must land inside the fixed array and
	// round-trip to an upper bound >= the value.
	for _, v := range []time.Duration{0, 1, 15, 16, 17, 31, 32, 1 << 20, 1<<62 + 12345, 1<<63 - 1} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, i, histBuckets)
		}
		if up := histUpper(i); up < v {
			t.Errorf("histUpper(histIndex(%d)) = %d < value", v, up)
		}
	}
}
