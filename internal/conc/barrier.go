package conc

// Barrier is a reusable (cyclic) synchronization barrier for a fixed party
// count: Await blocks until all parties have arrived, then releases the
// generation together. It models the per-step all-reduce of synchronous
// distributed data-parallel training.
type Barrier struct {
	mu      Mutex
	cond    Cond
	parties int
	waiting int
	gen     uint64
	broken  bool
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(env Env, parties int) *Barrier {
	if parties < 1 {
		panic("conc: barrier needs >= 1 party")
	}
	b := &Barrier{parties: parties}
	b.mu = env.NewMutex()
	b.cond = env.NewCond(b.mu)
	return b
}

// Await blocks until all parties arrive (the last arrival releases
// everyone and starts the next generation). It reports false if the
// barrier was broken before its generation was released; a waiter whose
// generation was released reports true even when Break follows before it
// wakes.
func (b *Barrier) Await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	return gen != b.gen
}

// Break permanently releases all current and future waiters with a false
// result (used when one party fails and the step can never complete).
func (b *Barrier) Break() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Broken reports whether Break was called.
func (b *Barrier) Broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}
