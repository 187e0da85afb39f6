package distrib

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
)

// newCoordinatorGroup is the replicated arrangement of the cluster
// coordinator: n replicas (n >= 1) each hold the full coordinator state
// (previous snapshots, applied tunings) over the same stages, led by a
// control.LeaderGroup — only the lowest-indexed live replica executes
// rounds. A replica that takes over holds slightly stale snapshots and
// tunings (frozen at the last round it led, or at construction); its first
// tick normalizes deltas over the long interval since its own last
// observation and re-applies its own tunings, after which it converges like
// a fresh coordinator. Every replica applies the same initial tuning (one
// producer each), so repeated construction-time writes are idempotent.
func newCoordinatorGroup(env conc.Env, interval time.Duration, stages []control.DataPlane, pol control.Policy, budget, n int) *control.LeaderGroup[*coordinator] {
	replicas := make([]*coordinator, n)
	for i := range replicas {
		replicas[i] = newCoordinator(env, stages, pol, budget)
	}
	return control.NewLeaderGroup(env, interval, replicas)
}
