package tamp

// BenchmarkFigure regenerates every row of the figure table that `tampbench
// -fig all` does — the paper's evaluation section, the ablations for the
// design choices DESIGN.md calls out, and the two matrices — at the table's
// own defaults, one sub-benchmark per row, and logs the rendered table once
// (run with -v to see it); `go test -bench=Figure -benchmem` reproduces the
// full evaluation. cmd/tampbench prints the same tables without the
// benchmark harness.

import (
	"testing"
	"time"

	"repro/internal/harness"
)

func BenchmarkFigure(b *testing.B) {
	env := harness.Env{Options: harness.DefaultOptions()}
	for _, f := range harness.Figures() {
		if !f.All {
			continue
		}
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := f.Run(env)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", out.Table)
				}
			}
		})
	}
}

// BenchmarkWirePacketDecode measures the hot receive-path cost that
// Figure 2's CPU model is built from.
func BenchmarkWirePacketDecode(b *testing.B) {
	per := harness.MeasureReceiveCost(b.N + 1)
	b.ReportMetric(float64(per.Nanoseconds()), "ns/packet")
}

// BenchmarkSimulatedClusterSecond measures simulator throughput: the cost
// of one virtual second of a 100-node hierarchical cluster in steady
// state.
func BenchmarkSimulatedClusterSecond(b *testing.B) {
	cl := NewCluster(Clustered(5, 20))
	cl.StartAll()
	cl.Run(20 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Run(time.Second)
	}
}
