package perf

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// hostCost is what a timed region cost the host.
type hostCost struct {
	wallS      float64 // at reference speed: rawWallS * speed
	rawWallS   float64 // as the clock read it
	speed      float64 // speedIndex over the region's calibration samples
	allocMB    float64 // MemStats.TotalAlloc over the region
	liveHeapMB float64 // HeapAlloc after two forced collections at its end
	mallocs    uint64
	gcCycles   uint32
	gcCPUShare float64 // GC CPU seconds per wall second of the region
}

// measure times a region executed as `chunks` calls of run, sampling the
// box's speed before, between and after them (the samples' own time is not
// counted). Whatever run builds must stay reachable until measure returns,
// or live_heap_mb measures an empty heap.
func measure(sp *speedometer, chunks int, run func(chunk int)) hostCost {
	var m0, m1, m2 runtime.MemStats
	samples := make([]float64, 0, chunks+1)
	gc0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	samples = append(samples, sp.sample())
	var wall time.Duration
	for i := 0; i < chunks; i++ {
		t0 := time.Now()
		run(i)
		wall += time.Since(t0)
		samples = append(samples, sp.sample())
	}
	runtime.ReadMemStats(&m1)
	gc1 := gcCPUSeconds()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	c := hostCost{
		rawWallS:   wall.Seconds(),
		speed:      speedIndex(samples),
		allocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		liveHeapMB: float64(m2.HeapAlloc) / 1e6,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcCPUShare: (gc1 - gc0) / wall.Seconds(),
	}
	c.wallS = c.rawWallS * c.speed
	return c
}

// note states the raw clock reading and the speed it was scaled by.
func (c hostCost) note() string {
	return fmt.Sprintf("host: timed region took %.3f s by the clock at speed index %.3f (1 = reference box when quiet); wall_s and setup_s are scaled to reference speed", c.rawWallS, c.speed)
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
