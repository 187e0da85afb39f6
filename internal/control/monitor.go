package control

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// Snapshot is one timestamped data-plane observation.
type Snapshot struct {
	At    time.Duration
	Stats core.StageStats
}

// Monitor is the control plane's metric collector (paper §III: the control
// plane "communicates with the data plane for collecting monitoring
// metrics (e.g., cache hits, I/O rate)"): a bounded ring of periodic
// snapshots per stage, with derived rates over arbitrary windows. It is
// what dashboards, policies, and the fairness arbiter read.
type Monitor struct {
	env      conc.Env
	mu       conc.Mutex
	capacity int
	series   map[string][]Snapshot
}

// NewMonitor keeps up to capacity snapshots per stage (older ones are
// dropped FIFO).
func NewMonitor(env conc.Env, capacity int) *Monitor {
	if capacity < 2 {
		panic("control: monitor needs capacity >= 2 (rates need two points)")
	}
	return &Monitor{env: env, mu: env.NewMutex(), capacity: capacity, series: make(map[string][]Snapshot)}
}

// Record appends a snapshot for stage id at the current time.
func (m *Monitor) Record(id string, stats core.StageStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := append(m.series[id], Snapshot{At: m.env.Now(), Stats: stats})
	if len(s) > m.capacity {
		s = s[len(s)-m.capacity:]
	}
	m.series[id] = s
}

// Series returns a copy of the retained snapshots for id, oldest first.
func (m *Monitor) Series(id string) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	src := m.series[id]
	out := make([]Snapshot, len(src))
	copy(out, src)
	return out
}

// Len reports the retained snapshot count for id.
func (m *Monitor) Len(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.series[id])
}

// Resilience returns the latest recorded resilience snapshot for id. ok is
// false when no snapshot exists yet.
func (m *Monitor) Resilience(id string) (storage.ResilienceStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.series[id]
	if len(s) == 0 {
		return storage.ResilienceStats{}, false
	}
	return s[len(s)-1].Stats.Resilience, true
}

// Degraded reports whether stage id's storage backend was shedding load
// (circuit breaker open or probing) as of the latest snapshot. This is the
// control-plane view of the degraded-mode signal the autotuner acts on.
func (m *Monitor) Degraded(id string) bool {
	r, ok := m.Resilience(id)
	return ok && r.Degraded
}

// Rates summarizes stage activity over the trailing window.
type Rates struct {
	Window            time.Duration
	ReadsPerSec       float64
	HitRate           float64 // hits / reads within the window
	ErrorRate         float64 // errors / reads within the window
	RetriesPerSec     float64 // storage retries within the window
	BufferTakesPerSec float64 // buffer consumptions within the window (aggregated over shards)
}

// counterReset reports whether cur's monotone counters moved backwards
// relative to prev — the signature of a stage restart, whose fresh counters
// would otherwise produce nonsensical negative deltas.
func counterReset(prev, cur Snapshot) bool {
	return cur.Stats.Reads < prev.Stats.Reads ||
		cur.Stats.Buffer.Takes < prev.Stats.Buffer.Takes ||
		cur.Stats.Buffer.ConsumerWait < prev.Stats.Buffer.ConsumerWait
}

// pairLocked selects the (oldest, newest) snapshot pair spanning the
// requested window: the oldest retained snapshot inside the window, widened
// to the last pair when the window is shorter than one sampling interval,
// and advanced past the most recent counter reset so a stage restart never
// yields negative deltas. Caller holds m.mu. ok is false with fewer than
// two usable snapshots.
func (m *Monitor) pairLocked(id string, window time.Duration) (oldest, newest Snapshot, ok bool) {
	s := m.series[id]
	if len(s) < 2 {
		return Snapshot{}, Snapshot{}, false
	}
	newest = s[len(s)-1]
	cutoff := newest.At - window
	idx := 0
	for i, snap := range s {
		if snap.At >= cutoff {
			idx = i
			break
		}
	}
	if s[idx].At >= newest.At {
		// window smaller than one sampling interval: widen to the last pair
		idx = len(s) - 2
	}
	// A restart resets the stage's counters; measuring across it would go
	// backwards. Start the window at the first post-reset snapshot instead.
	for i := idx + 1; i < len(s); i++ {
		if counterReset(s[i-1], s[i]) {
			idx = i
		}
	}
	oldest = s[idx]
	if oldest.At >= newest.At {
		return Snapshot{}, Snapshot{}, false
	}
	return oldest, newest, true
}

// nonneg clamps a counter delta to zero: even within a reset-free pair a
// backend swap can lower an auxiliary counter.
func nonneg(d int64) int64 {
	if d < 0 {
		return 0
	}
	return d
}

// Rate derives windowed rates for id from the two snapshots spanning the
// requested window (the oldest retained one if the window exceeds
// retention). Windows shorter than one sampling interval widen to the last
// snapshot pair, and a counter reset (stage restart) inside the window
// shrinks it to the post-restart span. ok is false with fewer than two
// usable snapshots.
func (m *Monitor) Rate(id string, window time.Duration) (Rates, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest, newest, ok := m.pairLocked(id, window)
	if !ok {
		return Rates{}, false
	}
	dt := (newest.At - oldest.At).Seconds()
	if dt <= 0 {
		return Rates{}, false
	}
	reads := nonneg(newest.Stats.Reads - oldest.Stats.Reads)
	hits := nonneg(newest.Stats.Hits - oldest.Stats.Hits)
	errors := nonneg(newest.Stats.Errors - oldest.Stats.Errors)
	retries := nonneg(newest.Stats.Resilience.Retries - oldest.Stats.Resilience.Retries)
	takes := nonneg(newest.Stats.Buffer.Takes - oldest.Stats.Buffer.Takes)
	r := Rates{
		Window:            newest.At - oldest.At,
		ReadsPerSec:       float64(reads) / dt,
		RetriesPerSec:     float64(retries) / dt,
		BufferTakesPerSec: float64(takes) / dt,
	}
	if reads > 0 {
		r.HitRate = float64(hits) / float64(reads)
		r.ErrorRate = float64(errors) / float64(reads)
	}
	return r, true
}

// Attribution derives the critical-path latency breakdown for id over the
// trailing window from the always-on wait counters (no span sampling
// needed). consumers < 1 defaults to 1. ok is false with fewer than two
// usable snapshots.
func (m *Monitor) Attribution(id string, window time.Duration, consumers int) (obs.Attribution, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest, newest, ok := m.pairLocked(id, window)
	if !ok {
		return obs.Attribution{}, false
	}
	return newest.Stats.Attribution(oldest.Stats, consumers), true
}

// EnableMonitoring attaches a monitor to the controller: every Tick also
// records each managed stage's snapshot. Call before Start.
func (c *Controller) EnableMonitoring(capacity int) *Monitor {
	m := NewMonitor(c.env, capacity)
	c.mu.Lock()
	c.monitor = m
	c.mu.Unlock()
	return m
}

// Monitor returns the attached monitor, or nil.
func (c *Controller) Monitor() *Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.monitor
}
