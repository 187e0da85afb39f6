package conc

import (
	"sync/atomic"
	"time"
)

// TickLoop is the periodic loop of the control plane's controllers, the
// tenancy manager and the fairness arbiter: from Start until Stop, a thread
// of the environment sleeps one interval, then ends if Stop was called
// meanwhile, and otherwise ticks. Stop therefore takes effect after the
// current sleep, and a tick in progress finishes. The zero value is a loop
// not yet started.
type TickLoop struct {
	started, stopped atomic.Bool
}

// Start runs tick every interval on a thread of env named name. It panics
// if the loop was started before.
func (l *TickLoop) Start(env Env, name string, interval time.Duration, tick func()) {
	if l.started.Swap(true) {
		panic("conc: " + name + " started twice")
	}
	env.Go(name, func() {
		for {
			env.Sleep(interval)
			if l.stopped.Load() {
				return
			}
			tick()
		}
	})
}

// Stop ends the loop after its current sleep. Safe to call without Start
// and more than once.
func (l *TickLoop) Stop() { l.stopped.Store(true) }
