package perf

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared 2-vCPU VM whose effective speed shifts by
// 20-30 % for minutes at a time (memory-system contention from other
// tenants: no steal is reported and cpu == wall). Runs minutes apart
// therefore disagree far beyond what longer regions can average out, so the
// two host-time metrics are reported at *reference speed*: next to every
// timed span the benchmark times a fixed loop of its own — a dependent
// pointer chase through 64 MB, the kind of work a simulator's event queue
// and directories do — and scales the span by how much slower or faster
// than nominal that loop ran. The loop is benchmark code, outside the Go
// heap, and touches nothing of the program under test, so no change to the
// repository can move it. On the reference box this cut the spread of
// identical flat-alltoall regions from 12.8 % to 5.5 % (bench/NOISE.md).

const (
	chaseWords = 16 << 20 // 64 MB of uint32, far beyond any cache
	chaseSteps = 600_000
	// nominalChase is what one sample takes on the reference box when it is
	// quiet; a sample that takes longer means a slower box right now.
	nominalChase = 0.105 // seconds
)

// speedometer times the calibration loop. A nil speedometer (toy runs)
// reads nominal speed.
type speedometer struct {
	mem  []byte
	ring []uint32
}

func newSpeedometer() (*speedometer, error) {
	// Outside the Go heap, so the ring neither shows in live_heap_mb nor
	// moves the collector's pacing.
	mem, err := syscall.Mmap(-1, 0, chaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration ring: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseWords)
	// One cycle through every word: a full-period LCG step (power-of-two
	// modulus, multiplier = 1 mod 4, odd increment) jumps pseudo-randomly, so
	// neither the prefetcher nor the TLB can follow it.
	for i := range ring {
		ring[i] = (uint32(i)*1664525 + 1013904223) & (chaseWords - 1)
	}
	return &speedometer{mem: mem, ring: ring}, nil
}

func (s *speedometer) close() {
	if s != nil {
		_ = syscall.Munmap(s.mem) // process exit would reclaim it anyway
	}
}

var chaseSink uint32 // keeps the chase from being optimised away

// sample times one run of the calibration loop, in seconds.
func (s *speedometer) sample() float64 {
	if s == nil {
		return nominalChase
	}
	t0 := time.Now()
	p := chaseSink & (chaseWords - 1)
	for i := 0; i < chaseSteps; i++ {
		p = s.ring[p]
	}
	chaseSink = p
	return time.Since(t0).Seconds()
}

// speedIndex turns the samples taken around a span into the factor that
// scales the span to reference speed: below 1 when the box was slow. It
// uses the median sample, which one collector burst or one scheduling
// hiccup during a sample cannot move.
func speedIndex(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return nominalChase / s[len(s)/2]
}
