package control

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// decisionLogCap bounds the per-stage decision audit ring.
const decisionLogCap = 256

// RuleReporter is the optional interface a control algorithm implements to
// name the rule behind its latest Decide outcome — the audit log records it
// verbatim. Algorithms without it are logged as "adjust"/"hold" depending
// on whether the tuning changed.
type RuleReporter interface {
	LastRule() string
}

// DecisionInputs are the monitoring signals a control algorithm saw when it
// decided — enough to reconstruct why a rule fired.
type DecisionInputs struct {
	// Interval is the observation window between the two snapshots.
	Interval time.Duration `json:"interval"`
	// Starvation is consumer Take-blocked time divided by the interval.
	Starvation float64 `json:"starvation"`
	// ProducerIdle is producer full-buffer-blocked time divided by
	// (interval x producers).
	ProducerIdle float64 `json:"producer_idle"`
	// TakesPerSec is the buffer consumption rate over the interval.
	TakesPerSec float64 `json:"takes_per_sec"`
	// QueueLen is the pending prefetch backlog at decision time.
	QueueLen int `json:"queue_len"`
	// Degraded reports whether the storage circuit breaker was shedding.
	Degraded bool `json:"degraded"`
}

// DecisionRecord is one audit-log entry: every control tick appends one,
// whether or not the tuning changed, so the trail shows both actions and
// deliberate holds alongside the latency attribution that justified them.
type DecisionRecord struct {
	At     time.Duration   `json:"at"`
	Tick   int64           `json:"tick"`
	Stage  string          `json:"stage"`
	Rule   string          `json:"rule"`
	Before Tuning          `json:"before"`
	After  Tuning          `json:"after"`
	Inputs DecisionInputs  `json:"inputs"`
	Attrib obs.Attribution `json:"attribution"`
}

// decisionInputs derives the audit-log signal view from an interval's
// snapshot pair (mirroring the autotuner's own arithmetic).
func decisionInputs(prev, cur core.StageStats, applied Tuning) DecisionInputs {
	in := DecisionInputs{
		Interval: cur.Now - prev.Now,
		QueueLen: cur.QueueLen,
		Degraded: cur.Resilience.Degraded,
	}
	if in.Interval <= 0 {
		return in
	}
	producers := applied.Producers
	if producers < 1 {
		producers = 1
	}
	in.Starvation = float64(cur.Buffer.ConsumerWait-prev.Buffer.ConsumerWait) / float64(in.Interval)
	in.ProducerIdle = float64(cur.Buffer.ProducerWait-prev.Buffer.ProducerWait) /
		(float64(in.Interval) * float64(producers))
	in.TakesPerSec = float64(cur.Buffer.Takes-prev.Buffer.Takes) / in.Interval.Seconds()
	return in
}

// recordDecision appends one audit entry to the stage's bounded ring.
// Caller holds c.mu.
func (ms *managedStage) recordDecision(rec DecisionRecord) {
	ms.decisions = append(ms.decisions, rec)
	if len(ms.decisions) > decisionLogCap {
		ms.decisions = ms.decisions[len(ms.decisions)-decisionLogCap:]
	}
}

// RecordEvent appends an externally-originated control action — e.g. a
// tenancy SLO breach boost — to stage id's decision audit ring, so every
// control-plane actuation lands in one explainable trail. Before/After
// carry the currently applied tuning (the event did not retune the stage);
// the rule string names what happened.
func (c *Controller) RecordEvent(id, rule string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, ok := c.stages[id]
	if !ok {
		return
	}
	ms.recordDecision(DecisionRecord{
		At:     c.env.Now(),
		Tick:   c.ticks,
		Stage:  id,
		Rule:   rule,
		Before: ms.applied,
		After:  ms.applied,
	})
}

// Decisions returns the retained decision audit log for stage id, oldest
// first.
func (c *Controller) Decisions(id string) []DecisionRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, ok := c.stages[id]
	if !ok {
		return nil
	}
	out := make([]DecisionRecord, len(ms.decisions))
	copy(out, ms.decisions)
	return out
}
