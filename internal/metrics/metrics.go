// Package metrics provides the measurement primitives used by the PRISMA
// data plane and the experiment harness: counters, bucketed duration
// histograms, run summaries, and a time-in-state tracker that records how
// long a discrete quantity (e.g. the number of concurrently reading
// threads) spends at each value — the measurement behind the paper's
// Figure 3 CDF.
//
// All types are safe for use from multiple threads of the owning conc.Env.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// Counter is a monotonically increasing event count. It is a bare atomic:
// producers and readers bump several per sample, and under the simulator —
// one process runs at a time — an atomic is as deterministic as the
// uncontended mutex it replaces (internal/mempool relies on the same).
type Counter struct{ n atomic.Int64 }

// NewCounter returns a zeroed counter. env is unused: it keeps the
// constructor's shape uniform with the package's other instruments.
func NewCounter(conc.Env) *Counter { return &Counter{} }

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter delta")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// TimeInState tracks how long an integer-valued signal spends at each
// value. Transitions are timestamped with env.Now(), read under the lock
// so racing transitions apply in timestamp order; call Distribution (which
// includes the interval in progress) once the observation window ends.
type TimeInState struct {
	env     conc.Env
	mu      conc.Mutex
	current int
	since   time.Duration
	// Accumulated time per value. The signals tracked here are small
	// counts (readers in flight, buffer occupancy, a breaker state) updated
	// on every sample, so values in [0, denseStates) index a slice grown on
	// demand and only the rest pay for a map assignment.
	dense  []stateTime
	sparse map[int]time.Duration
}

// denseStates covers the default maximum buffer capacity.
const denseStates = 4096

// stateTime is one dense slot: seen marks a value the signal has held, so
// Distribution reports it even when it held it for no time at all — as a
// map keyed by every value ever assigned would.
type stateTime struct {
	d    time.Duration
	seen bool
}

// NewTimeInState starts tracking with the signal at initial.
func NewTimeInState(env conc.Env, initial int) *TimeInState {
	return &TimeInState{
		env:     env,
		mu:      env.NewMutex(),
		current: initial,
		since:   env.Now(),
	}
}

// accrue credits d to the current value. Caller holds mu.
func (t *TimeInState) accrue(d time.Duration) {
	v := t.current
	if v < 0 || v >= denseStates {
		if t.sparse == nil {
			t.sparse = make(map[int]time.Duration)
		}
		t.sparse[v] += d
		return
	}
	if v >= len(t.dense) {
		t.dense = append(t.dense, make([]stateTime, v+1-len(t.dense))...)
	}
	t.dense[v].d += d
	t.dense[v].seen = true
}

// Set records a transition of the signal to v at the current time.
func (t *TimeInState) Set(v int) {
	t.mu.Lock()
	now := t.env.Now()
	t.accrue(now - t.since)
	t.current = v
	t.since = now
	t.mu.Unlock()
}

// Add shifts the signal by delta (convenience for +1/-1 concurrency
// tracking) and returns the new value.
func (t *TimeInState) Add(delta int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.env.Now()
	t.accrue(now - t.since)
	t.current += delta
	t.since = now
	return t.current
}

// Distribution returns a copy of the accumulated time per value, including
// the in-progress interval up to now.
func (t *TimeInState) Distribution() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.env.Now()
	out := make(map[int]time.Duration, len(t.sparse)+len(t.dense)+1)
	for k, v := range t.sparse {
		out[k] = v
	}
	for k, s := range t.dense {
		if s.seen {
			out[k] = s.d
		}
	}
	out[t.current] += now - t.since
	return out
}

// CDFPoint is one step of a cumulative distribution: the fraction of
// observed time spent at values <= Value.
type CDFPoint struct {
	Value       int
	Fraction    float64 // time share of exactly this value
	CumFraction float64 // time share of all values <= this one
}

// CDFOf converts a value→duration map into sorted CDF points.
func CDFOf(dist map[int]time.Duration) []CDFPoint {
	var total time.Duration
	values := make([]int, 0, len(dist))
	for v, d := range dist {
		if d < 0 {
			panic(fmt.Sprintf("metrics: negative duration %v for value %d", d, v))
		}
		if d == 0 {
			continue
		}
		values = append(values, v)
		total += d
	}
	if total == 0 {
		return nil
	}
	sort.Ints(values)
	out := make([]CDFPoint, 0, len(values))
	var cum float64
	for _, v := range values {
		f := float64(dist[v]) / float64(total)
		cum += f
		out = append(out, CDFPoint{Value: v, Fraction: f, CumFraction: cum})
	}
	// Clamp the final point against floating-point drift.
	out[len(out)-1].CumFraction = 1
	return out
}

// MaxValue returns the largest value with non-zero observed time, or zero
// when nothing was observed.
func MaxValue(dist map[int]time.Duration) int {
	max := 0
	for v, d := range dist {
		if d > 0 && v > max {
			max = v
		}
	}
	return max
}
