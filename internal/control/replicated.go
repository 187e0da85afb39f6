package control

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// Ticker is what a LeaderGroup leads: anything that executes one control
// round per Tick.
type Ticker interface{ Tick() }

// LeaderGroup addresses the paper's availability requirement (§III): the
// control plane is logically centralized but physically replicated. Every
// replica holds the full state; only the leader — the lowest-indexed live
// replica — executes rounds. When the leader fails, the next live replica
// takes over on the following round, resuming from its own (slightly stale)
// state. It leads the cluster coordinator (internal/distrib); a group of
// Controllers that all hold the same stages is the replicated per-stage
// controller.
type LeaderGroup[T Ticker] struct {
	env      conc.Env
	interval time.Duration

	mu        conc.Mutex
	replicas  []T
	alive     []bool
	loop      conc.TickLoop
	failovers int64
	lastLead  int
}

// NewLeaderGroup forms a group over the given replicas (at least one), all
// live, none started. Start ticks the leader every interval.
func NewLeaderGroup[T Ticker](env conc.Env, interval time.Duration, replicas []T) *LeaderGroup[T] {
	if len(replicas) < 1 {
		panic("control: leader group needs >= 1 replica")
	}
	alive := make([]bool, len(replicas))
	for i := range alive {
		alive[i] = true
	}
	return &LeaderGroup[T]{env: env, interval: interval, mu: env.NewMutex(), replicas: replicas, alive: alive}
}

// Leader reports the index of the current leader, or -1 when none is live.
func (g *LeaderGroup[T]) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderLocked()
}

func (g *LeaderGroup[T]) leaderLocked() int {
	for i, ok := range g.alive {
		if ok {
			return i
		}
	}
	return -1
}

// Fail marks replica i dead (simulated crash).
func (g *LeaderGroup[T]) Fail(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.alive[i] = false
}

// Recover marks replica i live again; leadership returns to the lowest
// index on the next round.
func (g *LeaderGroup[T]) Recover(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.alive[i] = true
}

// Failovers reports how many rounds were executed by a different replica
// than the previous round.
func (g *LeaderGroup[T]) Failovers() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failovers
}

// Replica exposes replica i (for tests and inspection).
func (g *LeaderGroup[T]) Replica(i int) T { return g.replicas[i] }

// LastLeader exposes the replica that executed the most recent round (the
// first replica before any round ran) — the one whose state is current.
func (g *LeaderGroup[T]) LastLeader() T {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.replicas[g.lastLead]
}

// Tick runs one control round on the current leader. It reports the
// replica index that executed the round, or -1 when all replicas are down.
func (g *LeaderGroup[T]) Tick() int {
	g.mu.Lock()
	lead := g.leaderLocked()
	if lead >= 0 && lead != g.lastLead {
		g.failovers++
	}
	if lead >= 0 {
		g.lastLead = lead
	}
	g.mu.Unlock()
	if lead < 0 {
		return -1
	}
	g.replicas[lead].Tick()
	return lead
}

// Start launches the group's autonomous loop.
func (g *LeaderGroup[T]) Start() {
	g.loop.Start(g.env, "prisma-leader-group", g.interval, func() { g.Tick() })
}

// Stop terminates the autonomous loop after its current sleep.
func (g *LeaderGroup[T]) Stop() { g.loop.Stop() }
