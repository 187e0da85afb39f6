package storage

import (
	"errors"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// ErrInjected is the base error wrapped by FaultyBackend failures.
var ErrInjected = errors.New("storage: injected fault")

// FaultyBackend wraps a Backend and fails or delays selected reads, for
// failure-path testing of the data plane (producer I/O errors must surface
// to the consumer that requested the file, not wedge the pipeline). It
// supports transient faults (fail N attempts, then heal) and injected
// latency for chaos schedules.
type FaultyBackend struct {
	env   conc.Env
	inner Backend

	mu conc.Mutex
	// failEvery fails every Nth read (1-indexed); 0 disables.
	failEvery int64
	// failNames fails reads of specific files until healed.
	failNames map[string]bool
	// transient maps a name to its remaining injected failures; the fault
	// heals once the count reaches zero, so retrying readers succeed.
	transient map[string]int
	// failNext fails the next N reads regardless of name (a blackout).
	failNext int64
	// latency is injected before every read (slow-read emulation).
	latency  time.Duration
	count    int64
	injected int64
	delayed  int64
}

// NewFaultyBackend wraps inner with no faults armed.
func NewFaultyBackend(env conc.Env, inner Backend) *FaultyBackend {
	return &FaultyBackend{
		env:       env,
		inner:     inner,
		mu:        env.NewMutex(),
		failNames: make(map[string]bool),
		transient: make(map[string]int),
	}
}

// FailEvery arms a fault on every nth read (n <= 0 disarms).
func (f *FaultyBackend) FailEvery(n int64) {
	f.mu.Lock()
	f.failEvery = n
	f.mu.Unlock()
}

// FailName arms a persistent fault for one file name (until Heal).
func (f *FaultyBackend) FailName(name string) {
	f.mu.Lock()
	f.failNames[name] = true
	f.mu.Unlock()
}

// FailNTimes arms a transient fault: the next n reads of name fail, after
// which the fault heals itself (n <= 0 disarms). This is the shape a
// retrying reader must survive.
func (f *FaultyBackend) FailNTimes(name string, n int) {
	f.mu.Lock()
	if n <= 0 {
		delete(f.transient, name)
	} else {
		f.transient[name] = n
	}
	f.mu.Unlock()
}

// FailNext arms a blackout: the next n reads of any name fail (n <= 0
// disarms). Used to drive the circuit breaker past its threshold.
func (f *FaultyBackend) FailNext(n int64) {
	f.mu.Lock()
	if n < 0 {
		n = 0
	}
	f.failNext = n
	f.mu.Unlock()
}

// SetLatency injects d of extra latency into every subsequent read (0
// disables). The sleep goes through the conc.Env, so sim-mode runs charge
// virtual time only.
func (f *FaultyBackend) SetLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

// Latency reports the injected per-read latency currently armed.
func (f *FaultyBackend) Latency() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latency
}

// Heal disarms every fault: persistent names, transient counts, blackout,
// periodic failures, and injected latency.
func (f *FaultyBackend) Heal() {
	f.mu.Lock()
	f.failEvery = 0
	f.failNext = 0
	f.latency = 0
	f.failNames = make(map[string]bool)
	f.transient = make(map[string]int)
	f.mu.Unlock()
}

// Injected reports how many faults have fired.
func (f *FaultyBackend) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Delayed reports how many reads had latency injected.
func (f *FaultyBackend) Delayed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delayed
}

// apply decides whether the current read of name fires a fault and how much
// latency to inject, updating the fault bookkeeping.
func (f *FaultyBackend) apply(name string) (fire bool, delay time.Duration) {
	f.mu.Lock()
	f.count++
	switch {
	case f.failNames[name]:
		fire = true
	case f.transient[name] > 0:
		f.transient[name]--
		if f.transient[name] == 0 {
			delete(f.transient, name)
		}
		fire = true
	case f.failNext > 0:
		f.failNext--
		fire = true
	case f.failEvery > 0 && f.count%f.failEvery == 0:
		fire = true
	}
	if fire {
		f.injected++
	}
	if f.latency > 0 {
		f.delayed++
		delay = f.latency
	}
	f.mu.Unlock()
	return fire, delay
}

// Read applies armed faults and latency, otherwise delegates. Faults fire
// before the inner read, so a fired fault never strands a lease.
func (f *FaultyBackend) Read(req Request) (Response, error) {
	fire, delay := f.apply(req.Name)
	if delay > 0 {
		f.env.Sleep(delay)
	}
	if fire {
		return Response{}, fmt.Errorf("%w: read of %q", ErrInjected, req.Name)
	}
	return f.inner.Read(req)
}

// Size delegates to the wrapped backend (metadata is assumed healthy).
func (f *FaultyBackend) Size(name string) (int64, error) { return f.inner.Size(name) }
