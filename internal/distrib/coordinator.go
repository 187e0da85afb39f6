package distrib

import (
	"sync"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
)

// coordinator is the Coordinated-mode control plane: it observes every
// stage's starvation/idleness each interval and redistributes a global
// producer budget, giving threads to starved stages and reclaiming them
// from idle ones. Unlike per-node tuners it can never oversubscribe the
// shared backend: the cluster-wide producer count stays within the budget.
// It drives stages through control.DataPlane. It has no loop of its own:
// a control.LeaderGroup ticks it, alone or replicated (newCoordinatorGroup).
type coordinator struct {
	stages []control.DataPlane
	pol    control.Policy
	budget int

	mu      conc.Mutex
	prev    []core.StageStats
	tunings []control.Tuning
}

// debugSignalsFn observes each stage's control signals every tick (test
// hook). Guarded by its own mutex, not the coordinator's: distrib tests run
// concurrently under -race, and the observer is installed from the test
// goroutine while coordinator ticks read it from sim processes.
var (
	debugSignalsMu sync.Mutex
	debugSignalsFn func(stage int, starvation, idle float64, queue, producers int)
)

// setDebugSignals installs (or, with nil, removes) the per-tick signal
// observer and returns the previous one so tests can restore it.
func setDebugSignals(f func(stage int, starvation, idle float64, queue, producers int)) (prev func(stage int, starvation, idle float64, queue, producers int)) {
	debugSignalsMu.Lock()
	defer debugSignalsMu.Unlock()
	prev = debugSignalsFn
	debugSignalsFn = f
	return prev
}

// debugSignalsHook snapshots the observer under the lock for one tick.
func debugSignalsHook() func(stage int, starvation, idle float64, queue, producers int) {
	debugSignalsMu.Lock()
	defer debugSignalsMu.Unlock()
	return debugSignalsFn
}

func newCoordinator(env conc.Env, stages []control.DataPlane, pol control.Policy, budget int) *coordinator {
	c := &coordinator{
		stages:  stages,
		pol:     pol,
		budget:  budget,
		mu:      env.NewMutex(),
		prev:    make([]core.StageStats, len(stages)),
		tunings: make([]control.Tuning, len(stages)),
	}
	// Start every stage at one producer; the budget is distributed on
	// demand from the first tick.
	for i, st := range stages {
		c.tunings[i] = control.Tuning{Producers: 1, BufferCapacity: pol.MinBuffer * 4}
		st.SetProducers(1)
		st.SetBufferCapacity(c.tunings[i].BufferCapacity)
		c.prev[i] = st.Stats()
	}
	return c
}

// applied reports the tuning currently applied to node n.
func (c *coordinator) applied(n int) control.Tuning {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tunings[n]
}

// Tick performs one coordination round.
func (c *coordinator) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()

	type signal struct {
		starvation float64
		idle       float64
		queue      int
	}
	signals := make([]signal, len(c.stages))
	used := 0
	for i, st := range c.stages {
		cur := st.Stats()
		interval := cur.Now - c.prev[i].Now
		if interval > 0 {
			consumerWait := cur.Buffer.ConsumerWait - c.prev[i].Buffer.ConsumerWait
			producerWait := cur.Buffer.ProducerWait - c.prev[i].Buffer.ProducerWait
			producers := c.tunings[i].Producers
			if producers < 1 {
				producers = 1
			}
			signals[i] = signal{
				starvation: float64(consumerWait) / float64(interval),
				idle:       float64(producerWait) / (float64(interval) * float64(producers)),
				queue:      cur.QueueLen,
			}
		}
		c.prev[i] = cur
		used += c.tunings[i].Producers
	}

	if hook := debugSignalsHook(); hook != nil {
		for i, sg := range signals {
			hook(i, sg.starvation, sg.idle, sg.queue, c.tunings[i].Producers)
		}
	}

	// Reclaim from idle stages first (frees budget), then grant to the
	// most starved stages while budget remains.
	for i, sg := range signals {
		if sg.starvation < c.pol.StarvationLow && sg.idle > c.pol.ProducerIdleHigh && sg.queue > 0 &&
			c.tunings[i].Producers > c.pol.MinProducers {
			c.tunings[i].Producers--
			used--
			c.stages[i].SetProducers(c.tunings[i].Producers)
		}
	}
	// Grant one producer per round to each starved stage, most starved
	// first, within the global budget.
	for used < c.budget {
		best, bestStarv := -1, c.pol.StarvationHigh
		for i, sg := range signals {
			if sg.starvation > bestStarv && c.tunings[i].Producers < c.pol.MaxProducers {
				best, bestStarv = i, sg.starvation
			}
		}
		if best < 0 {
			break
		}
		c.tunings[best].Producers++
		used++
		c.stages[best].SetProducers(c.tunings[best].Producers)
		signals[best].starvation = 0 // one grant per stage per round
	}

	// Rebalance under a fully spent budget: when one stage starves much
	// harder than another, move a producer from the calmest stage to the
	// hungriest. Absolute thresholds cannot see this case — with a global
	// batch larger than the buffer, every stage shows some starvation, but
	// the straggler's is categorically worse. Relative comparison is what
	// system-wide visibility buys (§III).
	const rebalanceGap = 0.25
	if used >= c.budget {
		hungry, calm := -1, -1
		for i, sg := range signals {
			if hungry < 0 || sg.starvation > signals[hungry].starvation {
				hungry = i
			}
			if c.tunings[i].Producers > c.pol.MinProducers &&
				(calm < 0 || sg.starvation < signals[calm].starvation) {
				calm = i
			}
		}
		if hungry >= 0 && calm >= 0 && hungry != calm &&
			signals[hungry].starvation-signals[calm].starvation > rebalanceGap &&
			c.tunings[hungry].Producers < c.pol.MaxProducers {
			c.tunings[calm].Producers--
			c.stages[calm].SetProducers(c.tunings[calm].Producers)
			c.tunings[hungry].Producers++
			c.stages[hungry].SetProducers(c.tunings[hungry].Producers)
		}
	}

	// Buffer growth mirrors the single-node tuner: a stage starving at
	// its producer grant doubles its buffer within policy bounds.
	for i, sg := range signals {
		if sg.starvation > c.pol.StarvationHigh && c.tunings[i].BufferCapacity < c.pol.MaxBuffer {
			c.tunings[i].BufferCapacity *= 2
			if c.tunings[i].BufferCapacity > c.pol.MaxBuffer {
				c.tunings[i].BufferCapacity = c.pol.MaxBuffer
			}
			c.stages[i].SetBufferCapacity(c.tunings[i].BufferCapacity)
		}
	}
}

// totalProducers reports the cluster-wide producer count.
func (c *coordinator) totalProducers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, t := range c.tunings {
		total += t.Producers
	}
	return total
}
