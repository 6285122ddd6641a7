package main

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// tick bounds the timer latency: due engine events fire within one tick of
// their virtual deadline, so heartbeat intervals should be a few ticks.
const tick = time.Millisecond

// driver advances a sim.Engine against the wall clock and serializes all
// protocol execution onto one goroutine: posted closures (packet deliveries
// from the read loops) and due engine events (protocol timers) run
// interleaved, exactly as the single-threaded simulation does, so the
// protocol code needs no locks in either world.
type driver struct {
	eng     *sim.Engine
	inject  chan func()
	done    chan struct{}
	loopwg  sync.WaitGroup
	started sync.Once
}

// newDriver wraps eng. The post queue holds a burst of deliveries (a
// multicast to every host, repeated over a few ticks) so that the read
// loops rarely wait on a busy driver.
func newDriver(eng *sim.Engine) *driver {
	return &driver{eng: eng, inject: make(chan func(), 4096), done: make(chan struct{})}
}

// start begins real-time execution; it is idempotent.
func (d *driver) start() {
	d.started.Do(func() {
		d.loopwg.Add(1)
		go d.loop()
	})
}

// stop halts execution and waits for the loop to exit; it is idempotent.
func (d *driver) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	close(d.done)
	d.loopwg.Wait()
}

// post schedules fn to run on the driver goroutine as soon as possible.
// Safe from any goroutine. After stop, posts are dropped.
func (d *driver) post(fn func()) {
	select {
	case d.inject <- fn:
	case <-d.done:
	}
}

// call runs fn on the driver goroutine and waits for it — the way the
// example and its tests read protocol state without racing the loop.
func (d *driver) call(fn func()) {
	ran := make(chan struct{})
	d.post(func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
	case <-d.done:
	}
}

func (d *driver) loop() {
	defer d.loopwg.Done()
	start := time.Now()
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		select {
		case <-d.done:
			return
		case fn := <-d.inject:
			d.eng.Run(time.Since(start))
			fn()
		case <-timer.C:
			d.eng.Run(time.Since(start))
		}
		// Drain any backlog of posts before sleeping again.
		for {
			select {
			case fn := <-d.inject:
				fn()
				continue
			default:
			}
			break
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(tick)
	}
}
