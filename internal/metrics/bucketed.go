package metrics

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// DefaultLatencyBuckets are Prometheus-style upper bounds covering storage
// and buffer-wait latencies from tens of microseconds to seconds.
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

// HistogramBucket is one cumulative bucket: Count samples were <= Le.
type HistogramBucket struct {
	Le    time.Duration `json:"le"`
	Count int64         `json:"count"`
}

// HistogramSnapshot is a fixed-bucket histogram view, JSON-friendly so it
// rides inside StageStats over the IPC and HTTP control paths, and directly
// renderable in Prometheus histogram exposition format (the implicit +Inf
// bucket equals Count).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     time.Duration     `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// BucketedHistogram is a bounded-memory duration histogram for hot paths:
// it retains only per-bucket counters, never the samples, so it can sit on
// the producer read path and the consumer Take path of a long-running
// server without growing. It counts with atomics, as Counter
// does, so an observation takes no lock.
type BucketedHistogram struct {
	bounds []time.Duration // ascending upper bounds; +Inf implicit
	counts []atomic.Int64  // len(bounds)+1, last = overflow
	sum    atomic.Int64    // nanoseconds
}

// NewBucketedHistogram returns an empty histogram with the given ascending
// upper bounds (nil selects DefaultLatencyBuckets). env is unused, as for
// NewCounter.
func NewBucketedHistogram(_ conc.Env, bounds []time.Duration) *BucketedHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	own := make([]time.Duration, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &BucketedHistogram{
		bounds: own,
		counts: make([]atomic.Int64, len(own)+1),
	}
}

// Observe records one sample. Negative samples clamp to zero.
func (h *BucketedHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot returns the cumulative-bucket view. Count is derived from the
// buckets, so the implicit +Inf bucket always equals it; Sum may run ahead
// of or behind an observation racing the snapshot.
func (h *BucketedHistogram) Snapshot() HistogramSnapshot {
	buckets := make([]HistogramBucket, len(h.bounds))
	var cum int64
	for i, le := range h.bounds {
		cum += h.counts[i].Load()
		buckets[i] = HistogramBucket{Le: le, Count: cum}
	}
	snap := HistogramSnapshot{Count: cum + h.counts[len(h.bounds)].Load(), Sum: time.Duration(h.sum.Load())}
	if snap.Count > 0 {
		snap.Buckets = buckets
	}
	return snap
}
