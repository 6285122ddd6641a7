package micro

import "testing"

// Every loop runs one batch without panicking — the receive loops panic if
// the daemon rejected their packets, the decode loops if a message does not
// parse — and reports a positive time.
func TestEveryBenchRuns(t *testing.T) {
	for _, b := range All {
		perOp, allocs := b.Run(1)
		if perOp <= 0 || allocs < 0 {
			t.Errorf("%s: %v %s/op, %v allocs/op", b.Name, perOp, b.Unit, allocs)
		}
	}
}

// BenchmarkMicro runs the same loops under the testing package, rebuilding
// each loop's state (timer stopped) every Bench.N calls.
func BenchmarkMicro(b *testing.B) {
	for _, m := range All {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; {
				b.StopTimer()
				n := m.N
				if n > b.N-done {
					n = b.N - done
				}
				call := m.Make(n)
				b.StartTimer()
				for i := 0; i < n; i++ {
					call(i)
				}
				done += n
			}
		})
	}
}
