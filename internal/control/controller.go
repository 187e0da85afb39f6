package control

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
)

// Controller is one stage's feedback loop: every round it reads the stage's
// stats through its control interface, asks its algorithm for the next
// tuning within its policy, applies it, and appends one DecisionRecord to
// its audit log — the control plane's one record of what it saw and did. A
// Controller can run autonomously (Start/Stop) or be stepped manually
// (Tick), which the deterministic experiment harness uses.
type Controller struct {
	env      conc.Env
	interval time.Duration
	dp       DataPlane
	alg      Algorithm
	pol      Policy
	loop     conc.TickLoop

	mu        conc.Mutex
	ticks     int64
	prev      core.StageStats
	applied   Tuning
	decisions []DecisionRecord // bounded audit ring, see decisions.go
}

// NewController puts stage dp under alg within pol, ticking every interval
// once started. The initial tuning, clamped into pol, is applied at once.
func NewController(env conc.Env, interval time.Duration, dp DataPlane, alg Algorithm, pol Policy, initial Tuning) (*Controller, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("control: non-positive control interval %v", interval)
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	initial = pol.Clamp(initial)
	c := &Controller{
		env:      env,
		interval: interval,
		dp:       dp,
		alg:      alg,
		pol:      pol,
		mu:       env.NewMutex(),
		prev:     dp.Stats(),
		applied:  initial,
	}
	dp.SetProducers(initial.Producers)
	dp.SetBufferCapacity(initial.BufferCapacity)
	return c, nil
}

// Tick performs one control round.
func (c *Controller) Tick() {
	c.mu.Lock()
	c.ticks++
	c.mu.Unlock()

	cur := c.dp.Stats()
	next := c.pol.Clamp(c.alg.Decide(c.prev, cur, c.applied, c.pol))
	changed := next != c.applied
	if changed {
		c.dp.SetProducers(next.Producers)
		c.dp.SetBufferCapacity(next.BufferCapacity)
	}
	rule := "hold"
	if changed {
		rule = "adjust"
	}
	if rr, ok := c.alg.(RuleReporter); ok {
		rule = rr.LastRule()
	}
	rec := DecisionRecord{
		At:     c.env.Now(),
		Rule:   rule,
		Before: c.applied,
		After:  next,
		Inputs: decisionInputs(c.prev, cur, c.applied),
		Attrib: cur.Attribution(c.prev, 1),
	}
	c.mu.Lock()
	rec.Tick = c.ticks
	c.recordDecision(rec)
	// applied/prev flip under the lock: RecordEvent reads c.applied
	// concurrently from SLO-action callbacks.
	c.applied = next
	c.prev = cur
	c.mu.Unlock()
}

// Ticks reports the number of completed control rounds.
func (c *Controller) Ticks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Applied reports the tuning currently applied to the stage.
func (c *Controller) Applied() Tuning {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// Start launches the autonomous control loop on a thread of the
// environment. It may be called at most once.
func (c *Controller) Start() { c.loop.Start(c.env, "prisma-controller", c.interval, c.Tick) }

// Stop terminates the autonomous loop after its current sleep. Safe to call
// without Start and more than once.
func (c *Controller) Stop() { c.loop.Stop() }
