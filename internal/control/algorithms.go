package control

import (
	"github.com/dsrhaslab/prisma-go/internal/core"
)

// This file provides alternative control algorithms for the same knobs the
// Autotuner manages. The paper notes its conclusions hold for its specific
// feedback loop and that "the same may not hold true when considering
// other control algorithms" (§V-A) — these implementations, together with
// the algorithms ablation, make that comparison concrete.

// AIMD applies TCP-style congestion control to the producer count:
// additive increase while consumers starve, multiplicative decrease when
// producers idle against a full buffer. It reacts faster than the
// plateau-guarded Autotuner but oscillates around the operating point,
// trading steady-state thread efficiency for convergence speed.
type AIMD struct {
	// DecreaseFactor scales t on overprovisioning (default 0.5).
	DecreaseFactor float64
}

// NewAIMD returns an AIMD tuner with the default halving decrease.
func NewAIMD() *AIMD { return &AIMD{DecreaseFactor: 0.5} }

// Name implements Algorithm.
func (a *AIMD) Name() string { return "aimd" }

// Decide implements Algorithm.
func (a *AIMD) Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning {
	next := pol.Clamp(applied)
	interval := cur.Now - prev.Now
	if interval <= 0 {
		return next
	}
	consumerWait := cur.Buffer.ConsumerWait - prev.Buffer.ConsumerWait
	producerWait := cur.Buffer.ProducerWait - prev.Buffer.ProducerWait
	starvation := float64(consumerWait) / float64(interval)
	producers := applied.Producers
	if producers < 1 {
		producers = 1
	}
	idle := float64(producerWait) / (float64(interval) * float64(producers))

	factor := a.DecreaseFactor
	if factor <= 0 || factor >= 1 {
		factor = 0.5
	}
	switch {
	case starvation > pol.StarvationHigh:
		if next.Producers < pol.MaxProducers {
			next.Producers++ // additive increase
		} else if next.BufferCapacity < pol.MaxBuffer {
			next.BufferCapacity *= 2
		}
	case starvation < pol.StarvationLow && idle > pol.ProducerIdleHigh && cur.QueueLen > 0:
		next.Producers = int(float64(next.Producers) * factor) // multiplicative decrease
	}
	return pol.Clamp(next)
}

// HillClimb probes the producer count like a one-dimensional hill climber:
// it perturbs t in its current direction each interval and keeps going
// while measured throughput improves, reversing otherwise. It needs no
// starvation thresholds at all — only the throughput signal — which makes
// it robust to miscalibrated policies but slower to settle.
type HillClimb struct {
	dir      int // +1 or -1
	lastRate float64
	primed   bool
}

// NewHillClimb returns a climber that starts by probing upward.
func NewHillClimb() *HillClimb { return &HillClimb{dir: +1} }

// Name implements Algorithm.
func (h *HillClimb) Name() string { return "hill-climb" }

// Decide implements Algorithm.
func (h *HillClimb) Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning {
	next := pol.Clamp(applied)
	interval := cur.Now - prev.Now
	if interval <= 0 {
		return next
	}
	rate := float64(cur.Buffer.Takes-prev.Buffer.Takes) / interval.Seconds()
	if rate <= 0 {
		// Idle interval (epoch boundary): hold and re-prime so a stale
		// rate does not trigger a bogus reversal later.
		h.primed = false
		return next
	}
	if h.primed && rate < h.lastRate*0.98 {
		h.dir = -h.dir // got worse: reverse
	}
	h.lastRate = rate
	h.primed = true
	next.Producers += h.dir
	// Bounce off the policy walls instead of saturating silently.
	if next.Producers > pol.MaxProducers {
		next.Producers = pol.MaxProducers
		h.dir = -1
	}
	if next.Producers < pol.MinProducers {
		next.Producers = pol.MinProducers
		h.dir = +1
	}
	return pol.Clamp(next)
}
