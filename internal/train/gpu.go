package train

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// GPUCluster models synchronous data-parallel execution across n GPUs with
// single-step software pipelining: the host thread may prepare the next
// batch while the previous step executes, but a new step cannot be issued
// until the previous one retires (the implicit overlap every DL framework
// provides even without explicit prefetching).
type GPUCluster struct {
	env conc.Env
	n   int

	mu     conc.Mutex
	freeAt time.Duration // when the in-flight step retires
	busyNS int64
	steps  int64
}

// NewGPUCluster returns an idle cluster of n GPUs.
func NewGPUCluster(env conc.Env, n int) *GPUCluster {
	if n < 1 {
		panic("train: GPU cluster needs >= 1 GPU")
	}
	return &GPUCluster{env: env, n: n, mu: env.NewMutex()}
}

// GPUs reports the cluster size.
func (g *GPUCluster) GPUs() int { return g.n }

// IssueStep submits one synchronous step of the given duration. If the
// previous step is still executing, the caller blocks until it retires
// (back-pressure), then the new step runs asynchronously. The returned
// duration is how long the caller was stalled.
func (g *GPUCluster) IssueStep(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	now := g.env.Now()
	g.mu.Lock()
	stall := g.freeAt - now
	g.mu.Unlock()
	if stall > 0 {
		g.env.Sleep(stall) // wait for the in-flight step to retire
	} else {
		stall = 0
	}
	now = g.env.Now()
	g.mu.Lock()
	g.freeAt = now + d
	g.busyNS += int64(d)
	g.steps++
	g.mu.Unlock()
	return stall
}

// Drain blocks until the in-flight step (if any) retires.
func (g *GPUCluster) Drain() {
	now := g.env.Now()
	g.mu.Lock()
	wait := g.freeAt - now
	g.mu.Unlock()
	if wait > 0 {
		g.env.Sleep(wait)
	}
}

// BusyTime reports cumulative issued compute time.
func (g *GPUCluster) BusyTime() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Duration(g.busyNS)
}

// Steps reports the number of issued steps.
func (g *GPUCluster) Steps() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.steps
}
