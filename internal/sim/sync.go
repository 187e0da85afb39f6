package sim

import "fmt"

// Mutex is a mutual-exclusion lock for simulated processes. Waiters are
// granted the lock in FIFO order. Acquiring a free lock consumes no virtual
// time and does not yield the processor.
//
// As a convenience for test and harness code inspecting state after (or
// between) Run calls, Lock/Unlock may also be called from outside any
// simulated process: the scheduler is synchronous with external code, so an
// uncontended external acquire is safe; a contended one panics because it
// could never be released.
type Mutex struct {
	sim      *Simulation
	owner    *Process
	external bool // held by code outside the simulation
	waiters  []*Process
}

// NewMutex returns an unlocked mutex bound to the simulation.
func (s *Simulation) NewMutex() *Mutex { return &Mutex{sim: s} }

// Lock blocks the calling process until the mutex is available.
func (m *Mutex) Lock() {
	if m.sim.current == nil {
		if m.owner != nil || m.external {
			panic("sim: external Mutex.Lock while the mutex is held")
		}
		m.external = true
		return
	}
	p := m.sim.current
	if m.external {
		panic("sim: Mutex.Lock inside a process while externally held")
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: process %q locked mutex twice", p.name))
	}
	if m.owner == nil {
		m.owner = p
		return
	}
	m.waiters = append(m.waiters, p)
	p.park("mutex wait")
	// handoff performed the ownership transfer before waking us.
	if m.owner != p {
		panic("sim: mutex handoff corrupted")
	}
}

// Unlock releases the mutex, handing it to the longest-waiting process.
func (m *Mutex) Unlock() {
	if m.sim.current == nil {
		if !m.external {
			panic("sim: external Mutex.Unlock of a mutex not externally held")
		}
		m.external = false
		return
	}
	p := m.sim.current
	if m.owner != p {
		panic(fmt.Sprintf("sim: process %q unlocked mutex owned by %v", p.name, ownerName(m.owner)))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next // direct handoff: no barging, deterministic order
	m.sim.wake(next)
}

func ownerName(p *Process) string {
	if p == nil {
		return "<nobody>"
	}
	return p.name
}

// Cond is a condition variable bound to a Mutex, mirroring sync.Cond.
type Cond struct {
	m       *Mutex
	waiters []*Process
}

// NewCond returns a condition variable that uses m as its lock.
func (s *Simulation) NewCond(m *Mutex) *Cond {
	if m == nil {
		panic("sim: NewCond with nil mutex")
	}
	if m.sim != s {
		panic("sim: NewCond with mutex from another simulation")
	}
	return &Cond{m: m}
}

// Wait atomically releases the mutex and parks the process; on wakeup it
// re-acquires the mutex before returning. The mutex must be held.
func (c *Cond) Wait() {
	p := c.m.sim.mustCurrent("Cond.Wait")
	if c.m.owner != p {
		panic(fmt.Sprintf("sim: Cond.Wait by %q without holding the mutex", p.name))
	}
	c.waiters = append(c.waiters, p)
	c.m.Unlock()
	p.park("cond wait")
	c.m.Lock()
}

// Signal wakes the longest-waiting process, if any. Unlike sync.Cond, the
// caller conventionally holds the mutex, but this is not required.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.m.sim.wake(p)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.m.sim.wake(p)
	}
	c.waiters = nil
}

// WaitGroup mirrors sync.WaitGroup for simulated processes.
type WaitGroup struct {
	sim     *Simulation
	count   int
	waiters []*Process
}

// NewWaitGroup returns a wait group with a zero counter.
func (s *Simulation) NewWaitGroup() *WaitGroup { return &WaitGroup{sim: s} }

// Add adds delta (which may be negative) to the counter. The counter must
// not go negative. When it reaches zero all waiters are released.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.sim.wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling process until the counter is zero.
func (w *WaitGroup) Wait() {
	if w.count == 0 {
		return
	}
	p := w.sim.mustCurrent("WaitGroup.Wait")
	w.waiters = append(w.waiters, p)
	p.park("waitgroup wait")
}
