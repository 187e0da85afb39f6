// Package control implements the PRISMA control plane (paper §III, §IV):
// a logically centralized component that monitors data-plane stages through
// their control interfaces, and enforces storage policies by adjusting the
// stages' tuning knobs — the number of producer threads t and the buffer
// capacity N. The headline control algorithm is a feedback loop
// (Autotuner) that converges to the smallest configuration sustaining the
// workload, avoiding the thread overprovisioning the paper measures in
// TensorFlow's intrinsic autotuning (Fig. 3).
package control

import (
	"fmt"

	"github.com/dsrhaslab/prisma-go/internal/core"
)

// DataPlane is the control interface a data-plane stage exposes to the
// control plane: monitoring (Stats) plus the two tuning knobs.
type DataPlane interface {
	Stats() core.StageStats
	SetProducers(n int)
	SetBufferCapacity(n int)
}

// Tuning is a concrete knob setting for one stage.
type Tuning struct {
	Producers      int // t
	BufferCapacity int // N
}

// Policy is the user-defined envelope a control algorithm must respect,
// plus the thresholds steering the feedback loop. Policies are what make
// optimizations adaptable without touching data-plane code (paper §III).
type Policy struct {
	// Bounds for the knobs.
	MinProducers, MaxProducers int
	MinBuffer, MaxBuffer       int

	// StarvationHigh: fraction of the control interval consumers spent
	// blocked on the buffer above which t is raised.
	StarvationHigh float64
	// StarvationLow: starvation fraction below which down-tuning may be
	// considered (hysteresis band between Low and High).
	StarvationLow float64
	// ProducerIdleHigh: per-producer fraction of the interval spent
	// blocked on a full buffer above which t is lowered.
	ProducerIdleHigh float64
}

// DefaultPolicy returns the prototype's tuning envelope.
func DefaultPolicy() Policy {
	return Policy{
		MinProducers:     1,
		MaxProducers:     32,
		MinBuffer:        4,
		MaxBuffer:        4096,
		StarvationHigh:   0.05,
		StarvationLow:    0.01,
		ProducerIdleHigh: 0.50,
	}
}

// Validate reports whether the policy is self-consistent.
func (p Policy) Validate() error {
	if p.MinProducers < 1 || p.MaxProducers < p.MinProducers {
		return fmt.Errorf("control: bad producer bounds [%d, %d]", p.MinProducers, p.MaxProducers)
	}
	if p.MinBuffer < 1 || p.MaxBuffer < p.MinBuffer {
		return fmt.Errorf("control: bad buffer bounds [%d, %d]", p.MinBuffer, p.MaxBuffer)
	}
	if p.StarvationHigh <= 0 || p.StarvationLow < 0 || p.StarvationLow >= p.StarvationHigh {
		return fmt.Errorf("control: bad starvation band [%v, %v]", p.StarvationLow, p.StarvationHigh)
	}
	if p.ProducerIdleHigh <= 0 || p.ProducerIdleHigh > 1 {
		return fmt.Errorf("control: bad producer idle threshold %v", p.ProducerIdleHigh)
	}
	return nil
}

// Clamp forces a tuning into the policy envelope.
func (p Policy) Clamp(t Tuning) Tuning {
	if t.Producers < p.MinProducers {
		t.Producers = p.MinProducers
	}
	if t.Producers > p.MaxProducers {
		t.Producers = p.MaxProducers
	}
	if t.BufferCapacity < p.MinBuffer {
		t.BufferCapacity = p.MinBuffer
	}
	if t.BufferCapacity > p.MaxBuffer {
		t.BufferCapacity = p.MaxBuffer
	}
	return t
}

// Algorithm is a pluggable centralized control algorithm: given the
// previous and current stage snapshots and the currently applied tuning,
// it returns the next tuning. Implementations must be pure functions of
// their inputs so controllers can be replicated and replayed.
type Algorithm interface {
	Name() string
	Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning
}

// StaticAlgorithm pins the knobs to fixed values (the "manually tuned"
// baseline in ablations).
type StaticAlgorithm struct{ Fixed Tuning }

// Name implements Algorithm.
func (s StaticAlgorithm) Name() string { return "static" }

// Decide implements Algorithm.
func (s StaticAlgorithm) Decide(prev, cur core.StageStats, applied Tuning, pol Policy) Tuning {
	return pol.Clamp(s.Fixed)
}
