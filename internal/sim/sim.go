// Package sim implements a deterministic discrete-event simulation engine
// with virtual time and cooperatively scheduled processes.
//
// Exactly one simulated process executes at any instant: the scheduler pops
// the earliest pending event, hands control to the owning process, and waits
// for that process to block (Sleep, condition wait, ...) or terminate before
// popping the next event. Ties in virtual time are broken by scheduling
// order, so a simulation with fixed inputs is fully reproducible.
//
// Processes are ordinary goroutines under the hood, but their interleaving
// is serialized by the engine, so simulated code may share state guarded by
// the engine's own Mutex/Cond primitives (see sync.go) without data races.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrDeadlock is wrapped by the error returned from Run when the event queue
// drains while blocked processes remain.
var ErrDeadlock = errors.New("sim: deadlock")

// errAborted is the sentinel panic value used to unwind process goroutines
// when the simulation shuts down early.
var errAborted = errors.New("sim: process aborted")

// event is a scheduled resumption of a process at a virtual instant.
type event struct {
	at   time.Duration
	seq  uint64 // tie-break: FIFO among equal timestamps
	proc *Process
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Simulation owns the virtual clock, the event queue, and all processes.
// The zero value is not usable; call New.
type Simulation struct {
	now     time.Duration
	seq     uint64
	queue   eventHeap
	yield   chan struct{}       // processes signal here when they block or finish
	current *Process            // process executing right now (nil inside scheduler)
	nparked int                 // blocked without a pending event (cond/mutex waits)
	parked  map[*Process]string // parked process -> reason, for deadlock reports
	failure error               // first panic escaping a process
	running bool
	stopped bool
}

// New returns an empty simulation whose clock reads zero.
func New() *Simulation {
	return &Simulation{
		yield:  make(chan struct{}),
		parked: make(map[*Process]string),
	}
}

// Now reports the current virtual time.
func (s *Simulation) Now() time.Duration { return s.now }

// Process is a simulated thread of execution. All blocking methods must be
// called from the goroutine running the process body.
type Process struct {
	sim     *Simulation
	name    string
	fn      func(*Process)
	resume  chan struct{}
	started bool
	aborted bool
}

// Name returns the label given at spawn time.
func (p *Process) Name() string { return p.name }

// Sim returns the owning simulation.
func (p *Process) Sim() *Simulation { return p.sim }

// Spawn registers a new process whose body starts executing at the current
// virtual time (after the caller yields, if called from inside a process).
func (s *Simulation) Spawn(name string, fn func(*Process)) *Process {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt registers a process whose body starts at absolute virtual time at,
// which must not precede the current time.
func (s *Simulation) SpawnAt(at time.Duration, name string, fn func(*Process)) *Process {
	if at < s.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) precedes now (%v)", at, s.now))
	}
	if fn == nil {
		panic("sim: SpawnAt with nil body")
	}
	p := &Process{sim: s, name: name, fn: fn, resume: make(chan struct{}, 1)}
	s.schedule(at, p)
	return p
}

func (s *Simulation) schedule(at time.Duration, p *Process) {
	s.seq++
	heap.Push(&s.queue, event{at: at, seq: s.seq, proc: p})
}

// Run executes events until the queue drains. It returns nil on a clean
// drain with no live processes, an ErrDeadlock-wrapped error if blocked
// processes remain, or the first panic raised inside a process body.
func (s *Simulation) Run() error { return s.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// bound). Events beyond the limit stay queued; the clock advances to the
// last executed event only.
func (s *Simulation) RunUntil(limit time.Duration) error {
	if s.running {
		panic("sim: Run re-entered")
	}
	if s.stopped {
		return errors.New("sim: simulation already shut down")
	}
	s.running = true
	defer func() { s.running = false }()

	for len(s.queue) > 0 {
		if limit >= 0 && s.queue[0].at > limit {
			return nil
		}
		ev := heap.Pop(&s.queue).(event)
		if ev.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", ev.at, s.now))
		}
		s.now = ev.at
		s.dispatch(ev.proc)
		if s.failure != nil {
			err := s.failure
			s.Shutdown()
			return err
		}
	}
	if s.nparked > 0 {
		err := fmt.Errorf("%w: %d process(es) blocked forever: %s",
			ErrDeadlock, s.nparked, s.parkedSummary())
		s.Shutdown()
		return err
	}
	return nil
}

func (s *Simulation) parkedSummary() string {
	var descs []string
	for p, reason := range s.parked {
		descs = append(descs, fmt.Sprintf("%s (%s)", p.name, reason))
	}
	sort.Strings(descs)
	const max = 8
	if len(descs) > max {
		descs = append(descs[:max], fmt.Sprintf("... and %d more", len(descs)-max))
	}
	return strings.Join(descs, ", ")
}

// dispatch transfers control to p and blocks until p yields back.
func (s *Simulation) dispatch(p *Process) {
	s.current = p
	if !p.started {
		p.started = true
		go p.top()
	} else {
		p.resume <- struct{}{}
	}
	<-s.yield
	s.current = nil
}

// top is the root frame of every process goroutine.
func (p *Process) top() {
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			if p.sim.failure == nil {
				p.sim.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.sim.yield <- struct{}{}
	}()
	p.fn(p)
}

// block yields control to the scheduler and waits to be resumed. reason is
// recorded for deadlock diagnostics when no wake event is pending.
func (p *Process) block(parked bool, reason string) {
	if p.sim.current != p {
		panic(fmt.Sprintf("sim: blocking call from outside process %q (current=%v)", p.name, p.sim.currentName()))
	}
	if parked {
		p.sim.nparked++
		p.sim.parked[p] = reason
	}
	p.sim.yield <- struct{}{}
	<-p.resume
	if parked {
		p.sim.nparked--
		delete(p.sim.parked, p)
	}
	if p.aborted {
		panic(errAborted)
	}
}

func (s *Simulation) currentName() string {
	if s.current == nil {
		return "<scheduler>"
	}
	return s.current.name
}

// Sleep suspends the process for virtual duration d (d <= 0 yields the
// processor, letting other processes scheduled at the same instant run).
func (p *Process) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.block(false, "")
}

// park blocks the process with no wake event; some other process must hand
// it to wake() later. Used by the synchronization primitives.
func (p *Process) park(reason string) { p.block(true, reason) }

// wake schedules a parked process to resume at the current virtual time.
func (s *Simulation) wake(p *Process) { s.schedule(s.now, p) }

// Current returns the process executing right now, or nil when called from
// outside the simulation (e.g. from the scheduler or test code).
func (s *Simulation) Current() *Process { return s.current }

// mustCurrent returns the running process or panics with a helpful message.
func (s *Simulation) mustCurrent(op string) *Process {
	if s.current == nil {
		panic("sim: " + op + " called from outside a simulated process")
	}
	return s.current
}

// Shutdown aborts every live process and releases their goroutines. The
// simulation cannot be used afterwards. It is safe to call multiple times.
//
// Unwinding one process may run its deferred functions, which can signal
// conditions or spawn processes; the loop keeps draining until nothing
// remains, skipping processes that already terminated.
func (s *Simulation) Shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	done := make(map[*Process]bool)
	for {
		var p *Process
		switch {
		case len(s.queue) > 0:
			p = heap.Pop(&s.queue).(event).proc
		case len(s.parked) > 0:
			for q := range s.parked {
				p = q
				break
			}
		default:
			return
		}
		if done[p] {
			continue
		}
		done[p] = true
		s.abort(p)
	}
}

func (s *Simulation) abort(p *Process) {
	if !p.started {
		// Never ran: nothing to unwind.
		delete(s.parked, p)
		return
	}
	p.aborted = true
	p.resume <- struct{}{}
	<-s.yield // top() recovers errAborted and reports termination
}
