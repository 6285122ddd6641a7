package perf

import "sort"

// Quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), which
// is how the benchmark's acceptance rule measures spread.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, clamped to the data, interpolated
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
