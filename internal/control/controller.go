package control

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
)

// managedStage is a stage under a controller's supervision.
type managedStage struct {
	id        string
	dp        DataPlane
	alg       Algorithm
	pol       Policy
	prev      core.StageStats
	applied   Tuning
	history   []TuningDecision
	decisions []DecisionRecord // bounded audit ring, see decisions.go
}

// TuningDecision records one control action for observability.
type TuningDecision struct {
	At     time.Duration
	Stage  string
	Before Tuning
	After  Tuning
}

// Controller is one (logical) control-plane instance. It periodically
// collects monitoring snapshots from attached stages and applies its
// control algorithms' decisions. A Controller can run autonomously
// (Start/Stop) or be stepped manually (Tick), which the deterministic
// experiment harness uses.
type Controller struct {
	env      conc.Env
	interval time.Duration

	mu      conc.Mutex
	stages  map[string]*managedStage
	order   []string // deterministic iteration order
	loop    conc.TickLoop
	ticks   int64
	monitor *Monitor // optional, see EnableMonitoring
}

// NewController creates a controller ticking every interval once started.
func NewController(env conc.Env, interval time.Duration) *Controller {
	if interval <= 0 {
		panic("control: non-positive control interval")
	}
	return &Controller{
		env:      env,
		interval: interval,
		mu:       env.NewMutex(),
		stages:   make(map[string]*managedStage),
	}
}

// Attach registers a stage under id with its algorithm and policy. The
// initial tuning is applied immediately.
func (c *Controller) Attach(id string, dp DataPlane, alg Algorithm, pol Policy, initial Tuning) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.stages[id]; dup {
		return fmt.Errorf("control: stage %q already attached", id)
	}
	initial = pol.Clamp(initial)
	ms := &managedStage{id: id, dp: dp, alg: alg, pol: pol, applied: initial}
	ms.prev = dp.Stats()
	c.stages[id] = ms
	c.order = append(c.order, id)
	dp.SetProducers(initial.Producers)
	dp.SetBufferCapacity(initial.BufferCapacity)
	return nil
}

// Detach removes a stage from supervision.
func (c *Controller) Detach(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stages[id]; !ok {
		return
	}
	delete(c.stages, id)
	for i, sid := range c.order {
		if sid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Stages reports the attached stage ids in attachment order.
func (c *Controller) Stages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Tick performs one control round over all attached stages.
func (c *Controller) Tick() {
	c.mu.Lock()
	ids := make([]string, len(c.order))
	copy(ids, c.order)
	c.ticks++
	mon := c.monitor
	c.mu.Unlock()

	for _, id := range ids {
		c.mu.Lock()
		ms, ok := c.stages[id]
		c.mu.Unlock()
		if !ok {
			continue
		}
		cur := ms.dp.Stats()
		if mon != nil {
			mon.Record(id, cur)
		}
		next := ms.pol.Clamp(ms.alg.Decide(ms.prev, cur, ms.applied, ms.pol))
		changed := next != ms.applied
		if changed {
			ms.dp.SetProducers(next.Producers)
			ms.dp.SetBufferCapacity(next.BufferCapacity)
		}
		rule := "hold"
		if changed {
			rule = "adjust"
		}
		if rr, ok := ms.alg.(RuleReporter); ok {
			rule = rr.LastRule()
		}
		rec := DecisionRecord{
			At:     c.env.Now(),
			Stage:  id,
			Rule:   rule,
			Before: ms.applied,
			After:  next,
			Inputs: decisionInputs(ms.prev, cur, ms.applied),
			Attrib: cur.Attribution(ms.prev, 1),
		}
		c.mu.Lock()
		rec.Tick = c.ticks
		ms.recordDecision(rec)
		if changed {
			ms.history = append(ms.history, TuningDecision{
				At:     rec.At,
				Stage:  id,
				Before: ms.applied,
				After:  next,
			})
		}
		// Applied/prev flip under the lock: RecordEvent reads ms.applied
		// concurrently from SLO-action callbacks.
		ms.applied = next
		ms.prev = cur
		c.mu.Unlock()
	}
}

// Ticks reports the number of completed control rounds.
func (c *Controller) Ticks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Applied reports the tuning currently applied to stage id.
func (c *Controller) Applied(id string) (Tuning, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, ok := c.stages[id]
	if !ok {
		return Tuning{}, false
	}
	return ms.applied, true
}

// History returns the tuning decisions recorded for stage id.
func (c *Controller) History(id string) []TuningDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms, ok := c.stages[id]
	if !ok {
		return nil
	}
	out := make([]TuningDecision, len(ms.history))
	copy(out, ms.history)
	return out
}

// Start launches the autonomous control loop on a thread of the
// environment. It may be called at most once.
func (c *Controller) Start() { c.loop.Start(c.env, "prisma-controller", c.interval, c.Tick) }

// Stop terminates the autonomous loop after its current sleep. Safe to call
// without Start and more than once.
func (c *Controller) Stop() { c.loop.Stop() }
