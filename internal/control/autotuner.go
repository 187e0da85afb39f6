package control

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
)

// Autotuner is the feedback control loop of paper §IV: it observes buffer
// statistics over each control interval and adjusts t (producers) and N
// (buffer capacity) until the configuration balances performance against
// resource usage.
//
// Signals per interval:
//
//   - starvation — cumulative time consumers spent blocked in Take divided
//     by the interval. High starvation means producers cannot keep up:
//     raise t, and double N once t is at its ceiling.
//   - producer idleness — cumulative time producers spent blocked on a
//     full buffer, divided by (interval × t). High idleness with no
//     starvation means the stage is overprovisioned: lower t.
//
// A hysteresis band between StarvationLow and StarvationHigh prevents
// oscillation; idle intervals with an empty prefetch queue (epoch
// boundaries) are ignored because producer idleness then reflects missing
// work, not overprovisioning; and a plateau detector steps t back when a
// raise produced no throughput gain — the case where the *device*, not the
// thread count, is the bottleneck. The plateau detector is what keeps
// PRISMA at a handful of threads where TensorFlow's intrinsic tuner pins
// thirty (Fig. 3): beyond the device's internal parallelism, more reader
// threads add nothing, and starvation alone cannot tell the difference.
//
// Autotuner is stateful (it remembers the throughput consequence of its
// last action); use one instance per controller.
type Autotuner struct {
	lastRaised   bool    // previous decision raised t
	lastRate     float64 // takes/sec observed before the raise
	plateauAt    int     // producer count beyond which no gain was seen (0 = none)
	plateauUntil int64   // consecutive calm intervals before retrying above the plateau
	lastRule     string  // rule that fired on the most recent Decide (audit log)
}

// NewAutotuner returns a fresh feedback controller.
func NewAutotuner() *Autotuner { return &Autotuner{} }

// Name implements Algorithm.
func (a *Autotuner) Name() string { return "prisma-autotune" }

// LastRule implements RuleReporter: the audit-log name of the rule that
// produced the most recent Decide outcome.
func (a *Autotuner) LastRule() string {
	if a.lastRule == "" {
		return "hold"
	}
	return a.lastRule
}

// Decide implements Algorithm.
func (a *Autotuner) Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning {
	a.lastRule = "hold"
	next := pol.Clamp(applied)
	interval := cur.Now - prev.Now
	if interval <= 0 {
		return next
	}

	// Degraded mode: the storage backend's circuit breaker is open (or
	// half-open), so extra reader threads would only pile retries onto a
	// failing device. Back t off one step per interval and skip the normal
	// signals; tuning resumes once the breaker closes.
	if cur.Resilience.Degraded {
		next.Producers--
		a.lastRaised = false
		a.lastRule = "degraded-backoff"
		return pol.Clamp(next)
	}

	consumerWait := cur.Buffer.ConsumerWait - prev.Buffer.ConsumerWait
	producerWait := cur.Buffer.ProducerWait - prev.Buffer.ProducerWait
	starvation := float64(consumerWait) / float64(interval)
	producers := applied.Producers
	if producers < 1 {
		producers = 1
	}
	idle := float64(producerWait) / (float64(interval) * float64(producers))
	rate := float64(cur.Buffer.Takes-prev.Buffer.Takes) / interval.Seconds()

	// Evaluate the consequence of the previous raise: if throughput did
	// not improve meaningfully, the bottleneck is elsewhere (device
	// parallelism, consumer); undo the raise and remember the plateau.
	if a.lastRaised {
		a.lastRaised = false
		if rate > 0 && rate <= a.lastRate*1.03 {
			next.Producers--
			next = pol.Clamp(next)
			a.plateauAt = next.Producers
			a.lastRule = "plateau-undo"
			return next
		}
	}

	switch {
	case starvation > pol.StarvationHigh:
		atPlateau := a.plateauAt > 0 && next.Producers >= a.plateauAt
		if next.Producers < pol.MaxProducers && !atPlateau {
			next.Producers++
			a.lastRaised = true
			a.lastRate = rate
			a.lastRule = "raise-producers"
		} else if next.BufferCapacity < pol.MaxBuffer {
			next.BufferCapacity *= 2
			a.lastRule = "grow-buffer"
		}
	case starvation < pol.StarvationLow && idle > pol.ProducerIdleHigh && cur.QueueLen > 0:
		// Overprovisioned and there is pending work (so the idleness is
		// genuine back-pressure, not an epoch boundary).
		next.Producers--
		a.plateauAt = 0 // the workload eased; allow future exploration
		a.lastRule = "lower-producers"
	}
	return pol.Clamp(next)
}

// progressed is a small helper reporting whether any consumption happened
// in the interval; exposed for tests of tuning edge cases.
func progressed(prev, cur core.StageStats) bool {
	return cur.Buffer.Takes > prev.Buffer.Takes
}

// GrowthAlgorithm mimics the essence of TensorFlow's prefetch autotuner
// (tensorflow/core/kernels/data/prefetch_autotuner.cc): it only ever grows —
// the buffer doubles whenever the consumer found it empty during the
// interval — and it pins parallelism at the policy maximum, the
// overprovisioning behaviour the paper measures in Figure 3.
type GrowthAlgorithm struct{}

// Name implements Algorithm.
func (GrowthAlgorithm) Name() string { return "tf-growth" }

// Decide implements Algorithm.
func (GrowthAlgorithm) Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning {
	next := applied
	next.Producers = pol.MaxProducers
	if cur.Buffer.ConsumerWait > prev.Buffer.ConsumerWait && progressed(prev, cur) {
		next.BufferCapacity *= 2
	}
	return pol.Clamp(next)
}

// Interval guidance: control decisions should observe enough activity to
// be meaningful. DefaultControlInterval trades reactivity against noise at
// the paper's request rates (hundreds to thousands of reads per second).
const DefaultControlInterval = 500 * time.Millisecond
