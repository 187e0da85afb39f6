// tenants.go is the multi-tenant overload-and-starvation harness: an
// adversarial (greedy, tight-loop) tenant and a well-behaved (paced)
// tenant share one stage behind the tenancy admission gate, in sim mode
// so every run is a seeded, reproducible virtual-time history. The run
// walks five phases — warm-up, fairness measurement, forced overload,
// recovery, degraded capacity — and reports per-phase admission
// accounting so tests can assert the robustness invariants: the greedy
// tenant is squeezed to its max-min share without starving the polite
// one; past the saturation threshold every rejection is a typed,
// retryable OverloadError (never a hang, never a silent drop); shedding
// stops as soon as the load clears; and degraded mode shrinks grants
// instead of shedding.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Tenant names used by the harness.
const (
	greedyTenant = "greedy"
	politeTenant = "polite"
)

// TenantConfig parameterizes one multi-tenant overload run. Everything is
// derived from Seed, so identical configs reproduce identical histories.
type TenantConfig struct {
	// Seed drives the workers' access patterns.
	Seed int64
	// Files and FileSize define the synthetic dataset.
	Files    int
	FileSize int64
	// Capacity is the total read rate (reads/s) the arbiter distributes.
	Capacity float64
	// TickInterval is the arbitration period; the driver ticks the manager
	// manually so phase boundaries are exact.
	TickInterval time.Duration
	// WarmupTicks lets the arbiter observe demand before measuring.
	WarmupTicks int
	// FairnessTicks is the fairness measurement window.
	FairnessTicks int
	// OverloadTicks is the forced-saturation window.
	OverloadTicks int
	// RecoveryTicks is the post-overload measurement window.
	RecoveryTicks int
	// DegradedTicks is the degraded-capacity measurement window.
	DegradedTicks int
	// GreedyWorkers is the number of tight-loop readers on the greedy
	// tenant; their combined unthrottled demand must exceed Capacity.
	GreedyWorkers int
	// PoliteInterval is the well-behaved tenant's think time between
	// reads; 1/PoliteInterval should sit below the tenant's fair share.
	PoliteInterval time.Duration
	// MaxQueueDepth is the saturation threshold; the overload phase
	// injects exactly this queue depth through the load probe.
	MaxQueueDepth int
	// DegradedFactor scales Capacity while the degraded signal is up.
	DegradedFactor float64
}

// DefaultTenantConfig returns a schedule where two greedy readers demand
// several times the shared capacity while the polite tenant asks for a
// quarter of it.
func DefaultTenantConfig(seed int64) TenantConfig {
	return TenantConfig{
		Seed:           seed,
		Files:          64,
		FileSize:       32_000,
		Capacity:       1000,
		TickInterval:   10 * time.Millisecond,
		WarmupTicks:    5,
		FairnessTicks:  20,
		OverloadTicks:  20,
		RecoveryTicks:  10,
		DegradedTicks:  10,
		GreedyWorkers:  2,
		PoliteInterval: 4 * time.Millisecond,
		MaxQueueDepth:  64,
		DegradedFactor: 0.5,
	}
}

// Validate reports whether the config can produce a meaningful run.
func (c TenantConfig) Validate() error {
	if c.Files < 1 || c.FileSize < 1 {
		return fmt.Errorf("chaos: need files >= 1 and file size >= 1")
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("chaos: need a positive capacity")
	}
	if c.TickInterval <= 0 || c.PoliteInterval <= 0 {
		return fmt.Errorf("chaos: need positive tick and polite intervals")
	}
	if c.WarmupTicks < 1 || c.FairnessTicks < 1 || c.OverloadTicks < 1 ||
		c.RecoveryTicks < 1 || c.DegradedTicks < 1 {
		return fmt.Errorf("chaos: every phase needs >= 1 tick")
	}
	if c.GreedyWorkers < 1 {
		return fmt.Errorf("chaos: need >= 1 greedy worker")
	}
	if c.MaxQueueDepth < 1 {
		return fmt.Errorf("chaos: need a positive queue-depth threshold")
	}
	if c.DegradedFactor <= 0 || c.DegradedFactor >= 1 {
		return fmt.Errorf("chaos: degraded factor must be in (0, 1)")
	}
	return nil
}

// TenantCounts is one tenant's admission accounting over a window. The
// worker increments Attempts and exactly one outcome per read after the
// read returns, so Attempts == Admitted + Shed + Untyped always holds —
// a read that hung would freeze the whole (deadlock-detected) sim, and a
// silently dropped one would break the manager-side cross-check.
type TenantCounts struct {
	Attempts int64
	Admitted int64 // read succeeded
	Shed     int64 // typed, retryable OverloadError
	Untyped  int64 // any other error (must stay zero)
}

// TenantPhase is both tenants' accounting over one phase.
type TenantPhase struct {
	Greedy TenantCounts
	Polite TenantCounts
}

func (p TenantPhase) delta(base TenantPhase) TenantPhase {
	sub := func(a, b TenantCounts) TenantCounts {
		return TenantCounts{
			Attempts: a.Attempts - b.Attempts,
			Admitted: a.Admitted - b.Admitted,
			Shed:     a.Shed - b.Shed,
			Untyped:  a.Untyped - b.Untyped,
		}
	}
	return TenantPhase{Greedy: sub(p.Greedy, base.Greedy), Polite: sub(p.Polite, base.Polite)}
}

// TenantResult is the observable outcome of one run.
type TenantResult struct {
	// FairShare is Capacity split evenly across the two active tenants.
	FairShare float64
	// PoliteDemand is the polite tenant's nominal request rate
	// (1/PoliteInterval); PoliteRate and GreedyRate are the admitted
	// rates measured over the fairness window.
	PoliteDemand float64
	PoliteRate   float64
	GreedyRate   float64
	// GreedyDegradedRate is the greedy admitted rate while capacity is
	// scaled down by DegradedFactor.
	GreedyDegradedRate float64
	// Per-phase accounting (deltas over each measurement window).
	Fairness TenantPhase
	Overload TenantPhase
	Recovery TenantPhase
	Degraded TenantPhase
	// Totals is the whole-run accounting, including phase transitions.
	Totals TenantPhase
	// OverloadedObserved samples the gate's shed state mid-overload;
	// RecoveredClear samples it after the load is lifted.
	OverloadedObserved bool
	RecoveredClear     bool
	// DegradedCapacity and RestoredCapacity are the arbiter capacity
	// during and after the degraded phase.
	DegradedCapacity float64
	RestoredCapacity float64
	// StageShed is the stage-side shed counter at end of run; Snapshot is
	// the final control-plane view. Both must agree with Totals — a shed
	// the client never saw as a typed error would break the equality.
	StageShed int64
	Snapshot  tenancy.Snapshot
}

// tenantBoard is the shared state between the driver and the workers:
// the scriptable load probe, the stop flag, and the admission counters.
type tenantBoard struct {
	mu      conc.Mutex
	load    tenancy.Load
	stopped bool
	done    int
	greedy  TenantCounts
	polite  TenantCounts
}

func (b *tenantBoard) setLoad(l tenancy.Load) {
	b.mu.Lock()
	b.load = l
	b.mu.Unlock()
}

func (b *tenantBoard) probe() tenancy.Load {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load
}

func (b *tenantBoard) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
}

func (b *tenantBoard) isStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}

func (b *tenantBoard) workerDone() {
	b.mu.Lock()
	b.done++
	b.mu.Unlock()
}

func (b *tenantBoard) doneCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// record classifies one finished read attempt and returns the backoff the
// worker must honor before retrying (zero unless the read was shed).
func (b *tenantBoard) record(tenant string, err error) time.Duration {
	var backoff time.Duration
	b.mu.Lock()
	c := &b.greedy
	if tenant == politeTenant {
		c = &b.polite
	}
	c.Attempts++
	var oe *tenancy.OverloadError
	switch {
	case err == nil:
		c.Admitted++
	case errors.As(err, &oe):
		c.Shed++
		backoff = oe.RetryAfter
		if backoff <= 0 {
			backoff = 100 * time.Microsecond
		}
	default:
		c.Untyped++
	}
	b.mu.Unlock()
	return backoff
}

func (b *tenantBoard) snapshot() TenantPhase {
	b.mu.Lock()
	defer b.mu.Unlock()
	return TenantPhase{Greedy: b.greedy, Polite: b.polite}
}

// RunTenants executes one seeded overload schedule in sim mode. The
// returned error is non-nil when the simulation wedges (a hung read or
// shutdown) or a worker fails to stop.
func RunTenants(cfg TenantConfig) (TenantResult, error) {
	if err := cfg.Validate(); err != nil {
		return TenantResult{}, err
	}
	s := sim.New()
	env := conc.NewSimEnv(s)
	var res TenantResult
	var runErr error
	s.Spawn("tenant-chaos-driver", func(*sim.Process) {
		res, runErr = driveTenants(env, cfg)
	})
	if err := s.Run(); err != nil {
		return res, fmt.Errorf("chaos: tenant simulation wedged: %w", err)
	}
	return res, runErr
}

// driveTenants builds the stack, spawns the tenants' workers, and walks
// the phase schedule, ticking the manager manually so the load probe and
// phase boundaries stay deterministic.
func driveTenants(env conc.Env, cfg TenantConfig) (TenantResult, error) {
	var res TenantResult

	samples := make([]dataset.Sample, cfg.Files)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("t%05d", i), Size: cfg.FileSize}
	}
	man := dataset.MustNew(samples)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		Name:           "tenant-ssd",
		BaseLatency:    200 * time.Microsecond,
		BytesPerSecond: 1e9,
		Channels:       8,
	})
	if err != nil {
		return res, err
	}
	// The prefetcher is never given a plan: every read bypasses to the
	// device, so the gate alone shapes the tenants' traffic.
	backend := storage.NewModeledBackend(man, dev)
	pf, err := core.NewPrefetcher(env, backend, man, core.DefaultPrefetcherConfig())
	if err != nil {
		return res, err
	}
	st := core.NewStage(env, backend, pf)
	defer st.Close()

	board := &tenantBoard{mu: env.NewMutex()}
	mgr, err := tenancy.New(env, tenancy.Config{
		Capacity:       cfg.Capacity,
		TickInterval:   cfg.TickInterval,
		DegradedFactor: cfg.DegradedFactor,
		MaxQueueDepth:  cfg.MaxQueueDepth,
		MaxRetryAfter:  100 * time.Millisecond,
		Load:           board.probe,
	})
	if err != nil {
		return res, err
	}
	for _, name := range []string{greedyTenant, politeTenant} {
		if err := mgr.Register(tenancy.Spec{Name: name}); err != nil {
			return res, err
		}
	}
	st.SetTenantGate(mgr)

	// Workers read until stopped. The greedy ones loop as fast as the gate
	// admits them; the polite one paces itself below its fair share. Both
	// honor the retry-after hint when shed — exactly what a real client's
	// backoff does, and what keeps a shed from turning into a hot spin.
	worker := func(tenant string, idx int, think time.Duration) {
		env.Go(fmt.Sprintf("tenant-%s-%d", tenant, idx), func() {
			defer board.workerDone()
			rng := rand.New(rand.NewSource(cfg.Seed ^ (int64(idx)+1)*0x9e3779b9))
			for !board.isStopped() {
				name := fmt.Sprintf("t%05d", rng.Intn(cfg.Files))
				d, _, err := st.Read(core.ReadRequest{Name: name, Tenant: tenant})
				d.Release()
				if backoff := board.record(tenant, err); backoff > 0 {
					env.Sleep(backoff)
				}
				if think > 0 {
					env.Sleep(think)
				}
			}
		})
	}
	for i := 0; i < cfg.GreedyWorkers; i++ {
		worker(greedyTenant, i, 0)
	}
	worker(politeTenant, cfg.GreedyWorkers, cfg.PoliteInterval)
	workers := cfg.GreedyWorkers + 1

	tickFor := func(n int) {
		for i := 0; i < n; i++ {
			env.Sleep(cfg.TickInterval)
			mgr.Tick(cfg.TickInterval)
		}
	}

	// Phase 1 — fairness: both tenants run free of injected load; the
	// arbiter squeezes the greedy tenant to the slack the polite one
	// leaves on the table.
	tickFor(cfg.WarmupTicks)
	base := board.snapshot()
	start := env.Now()
	tickFor(cfg.FairnessTicks)
	res.Fairness = board.snapshot().delta(base)
	window := (env.Now() - start).Seconds()
	res.FairShare = cfg.Capacity / 2
	res.PoliteDemand = 1 / cfg.PoliteInterval.Seconds()
	res.PoliteRate = float64(res.Fairness.Polite.Admitted) / window
	res.GreedyRate = float64(res.Fairness.Greedy.Admitted) / window

	// Phase 2 — overload: the load probe reports a saturated queue, so the
	// gate sheds over-budget tenants instead of queueing them.
	board.setLoad(tenancy.Load{QueueDepth: cfg.MaxQueueDepth})
	tickFor(1) // the flag flips at the first evaluation
	base = board.snapshot()
	tickFor(cfg.OverloadTicks)
	res.OverloadedObserved = mgr.Overloaded()
	res.Overload = board.snapshot().delta(base)

	// Phase 3 — recovery: the load clears; two settle ticks let the flag
	// flip and in-flight sheds drain before the measurement window, which
	// must then be shed-free.
	board.setLoad(tenancy.Load{})
	tickFor(2)
	base = board.snapshot()
	tickFor(cfg.RecoveryTicks)
	res.Recovery = board.snapshot().delta(base)
	res.RecoveredClear = !mgr.Overloaded()

	// Phase 4 — degraded: the breaker signal scales capacity down by
	// DegradedFactor. Grants shrink proportionally; nothing is shed.
	board.setLoad(tenancy.Load{Degraded: true})
	tickFor(1)
	res.DegradedCapacity = mgr.Stats().Capacity
	base = board.snapshot()
	start = env.Now()
	tickFor(cfg.DegradedTicks)
	res.Degraded = board.snapshot().delta(base)
	res.GreedyDegradedRate = float64(res.Degraded.Greedy.Admitted) / (env.Now() - start).Seconds()
	board.setLoad(tenancy.Load{})
	tickFor(1)
	res.RestoredCapacity = mgr.Stats().Capacity

	// Shutdown: workers drain on their own — buckets refill continuously
	// off the clock, so a worker blocked in Acquire always unblocks as
	// virtual time advances. The bound is a backstop that turns a hung
	// worker into a test failure instead of a sim wedge.
	board.stop()
	for i := 0; board.doneCount() < workers; i++ {
		if i > 10_000 {
			return res, fmt.Errorf("chaos: %d of %d tenant workers failed to stop", workers-board.doneCount(), workers)
		}
		env.Sleep(cfg.TickInterval)
	}
	res.Totals = board.snapshot()
	res.StageShed = st.Stats().Shed
	res.Snapshot = mgr.Stats()
	return res, nil
}
