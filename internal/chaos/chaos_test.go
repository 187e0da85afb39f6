package chaos

import (
	"testing"
)

// TestChaosSchedules is the headline robustness gate: 100 seeded fault
// schedules, each a full multi-epoch run in sim mode, asserting the three
// invariants — no wedging (sim deadlock detection), exactly-once-or-error
// delivery for every planned sample, and throughput recovery within 10% of
// the fault-free calibration epoch once faults heal.
func TestChaosSchedules(t *testing.T) {
	schedules := 100
	if testing.Short() {
		schedules = 10
	}
	var totalRetries, totalInjected, totalOpens, totalFastFails int64
	degradedSeeds := 0
	breakerSeeds := 0
	for seed := 0; seed < schedules; seed++ {
		cfg := DefaultConfig(int64(seed))
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := int64(cfg.Files * cfg.Epochs)
		if res.Delivered+res.ConsumerErrors != want {
			t.Fatalf("seed %d: delivered %d + errors %d != planned %d (lost or duplicated samples)",
				seed, res.Delivered, res.ConsumerErrors, want)
		}
		if res.Delivered == 0 {
			t.Fatalf("seed %d: nothing delivered", seed)
		}
		if res.FinalEpochErrors != 0 {
			t.Fatalf("seed %d: %d consumer errors in the healed final epoch", seed, res.FinalEpochErrors)
		}
		if !res.Drained {
			t.Fatalf("seed %d: queue or buffer not drained at end of run", seed)
		}
		if res.RecoveryRatio > 1.10 {
			t.Fatalf("seed %d: recovery ratio %.3f > 1.10 (epochs %v)", seed, res.RecoveryRatio, res.EpochTimes)
		}
		totalRetries += res.Retries
		totalInjected += res.Injected
		totalOpens += res.BreakerOpens
		totalFastFails += res.FastFails
		if res.DegradedObserved {
			degradedSeeds++
		}
		if res.BreakerOpens > 0 {
			breakerSeeds++
		}
	}
	// The schedule must actually have exercised the resilience machinery.
	if totalInjected == 0 {
		t.Fatal("no faults injected across all schedules")
	}
	if totalRetries == 0 {
		t.Fatal("no retries across all schedules: resilience layer untested")
	}
	if breakerSeeds == 0 {
		t.Fatal("no schedule opened the circuit breaker")
	}
	if degradedSeeds == 0 {
		t.Fatal("no schedule observed the degraded-mode signal")
	}
	t.Logf("schedules=%d retries=%d injected=%d opens=%d fastFails=%d degradedSeeds=%d",
		schedules, totalRetries, totalInjected, totalOpens, totalFastFails, degradedSeeds)
}

// TestChaosDeterministic: the same seed must reproduce the identical
// virtual-time history — the property that makes chaos failures debuggable.
func TestChaosDeterministic(t *testing.T) {
	cfg := DefaultConfig(17)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.ConsumerErrors != b.ConsumerErrors ||
		a.Injected != b.Injected || a.Retries != b.Retries ||
		a.BreakerOpens != b.BreakerOpens || a.FastFails != b.FastFails {
		t.Fatalf("same seed diverged:\n  a = %+v\n  b = %+v", a, b)
	}
	for i := range a.EpochTimes {
		if a.EpochTimes[i] != b.EpochTimes[i] {
			t.Fatalf("epoch %d times diverged: %v vs %v", i, a.EpochTimes[i], b.EpochTimes[i])
		}
	}
}

// TestChaosWithAutotuner exercises the control-plane path: the decision
// log must record the degraded signal and the autotuner must back
// producers off while the breaker sheds load. Delivery accounting must
// hold here too; the recovery-ratio bound is relaxed because the tuner may
// still be re-raising t during the final epoch.
func TestChaosWithAutotuner(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	sawDegraded := false
	sawBackoff := false
	for seed := 0; seed < seeds; seed++ {
		cfg := DefaultConfig(int64(seed))
		cfg.AutoTune = true
		// Longer faulted phase and a longer breaker cooldown give the
		// control loop degraded windows wide enough to tick inside.
		cfg.Epochs = 6
		cfg.Faults = 48
		cfg.Resilience.BreakerCooldown = 4 * cfg.ControlInterval
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := int64(cfg.Files * cfg.Epochs)
		if res.Delivered+res.ConsumerErrors != want {
			t.Fatalf("seed %d: delivered %d + errors %d != planned %d",
				seed, res.Delivered, res.ConsumerErrors, want)
		}
		if res.FinalEpochErrors != 0 {
			t.Fatalf("seed %d: %d errors in healed final epoch", seed, res.FinalEpochErrors)
		}
		if !res.Drained {
			t.Fatalf("seed %d: pipeline not drained", seed)
		}
		if res.DecisionDegraded {
			sawDegraded = true
		}
		if res.DegradedBackoff {
			sawBackoff = true
		}
	}
	if !sawDegraded {
		t.Error("decision log never recorded the degraded signal across autotuned runs")
	}
	if !sawBackoff {
		t.Error("autotuner never backed off producers across degraded runs")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Files = 0 },
		func(c *Config) { c.FileSize = 0 },
		func(c *Config) { c.Epochs = 2 },
		func(c *Config) { c.Producers = 0 },
		func(c *Config) { c.BufferCap = 0 },
		func(c *Config) { c.MaxBurst = 0 },
		func(c *Config) { c.Faults = -1 },
		func(c *Config) { c.Resilience.BackoffFactor = 0.5 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(1)
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestChaosPoolLeakAudit is the chaos half of the pooled leak audit: full
// fault-injected epochs with a debug pool threaded through backend and
// stage. Faults abort reads on every layer — retry give-ups, breaker fast
// fails, producer-side errors — and every abort path must still release its
// lease. After the run, zero leases may remain and the ledger must be empty.
func TestChaosPoolLeakAudit(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	var totalGets, totalInjected int64
	for seed := 0; seed < seeds; seed++ {
		cfg := DefaultConfig(int64(seed))
		cfg.UsePool = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := int64(cfg.Files * cfg.Epochs)
		if res.Delivered+res.ConsumerErrors != want {
			t.Fatalf("seed %d: delivered %d + errors %d != planned %d",
				seed, res.Delivered, res.ConsumerErrors, want)
		}
		if res.PoolOutstanding != 0 {
			t.Fatalf("seed %d: %d pool leases outstanding after chaos run (leaks: %v)",
				seed, res.PoolOutstanding, res.PoolLeaks)
		}
		if len(res.PoolLeaks) != 0 {
			t.Fatalf("seed %d: leak ledger not empty: %v", seed, res.PoolLeaks)
		}
		if res.Pool.Gets == 0 {
			t.Fatalf("seed %d: pool never used — chaos audit vacuous", seed)
		}
		totalGets += res.Pool.Gets
		totalInjected += res.Injected
	}
	// The audit only means something if faults actually fired while pooled
	// buffers were in flight.
	if totalInjected == 0 {
		t.Fatal("no faults injected across pooled chaos schedules")
	}
	t.Logf("seeds=%d poolGets=%d injected=%d", seeds, totalGets, totalInjected)
}

// TestChaosPooledMatchesUnpooled: pooling must not change chaos semantics —
// the same seed delivers the same counts with and without the pool.
func TestChaosPooledMatchesUnpooled(t *testing.T) {
	cfg := DefaultConfig(23)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UsePool = true
	pooled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Delivered != pooled.Delivered || plain.ConsumerErrors != pooled.ConsumerErrors ||
		plain.Injected != pooled.Injected {
		t.Fatalf("pooling changed chaos outcome:\n  plain  = delivered %d errors %d injected %d\n  pooled = delivered %d errors %d injected %d",
			plain.Delivered, plain.ConsumerErrors, plain.Injected,
			pooled.Delivered, pooled.ConsumerErrors, pooled.Injected)
	}
}
