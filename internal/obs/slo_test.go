package obs

import (
	"math/rand"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

func runSLOSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// sloTestConfig is a tight objective for deterministic sim tests: 90% of
// reads under 1ms over a 12s window with 1s buckets.
func sloTestConfig() SLOConfig {
	return SLOConfig{
		Quantile:    0.9,
		Threshold:   time.Millisecond,
		Window:      12 * time.Second,
		ShortWindow: time.Second,
	}
}

// observeN records n reads with the given latency (shed=false).
func observeN(s *SLOTracker, tenant string, n int, latency time.Duration) {
	for i := 0; i < n; i++ {
		s.Observe(tenant, latency, false)
	}
}

func TestSLODefaults(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		s.Set("a", SLOConfig{Threshold: 10 * time.Millisecond})
		cfg, ok := s.Config("a")
		if !ok {
			t.Fatal("Config: tenant missing")
		}
		if cfg.Quantile != 0.99 {
			t.Errorf("Quantile = %v, want 0.99", cfg.Quantile)
		}
		if cfg.Window != 60*time.Second {
			t.Errorf("Window = %v, want 60s", cfg.Window)
		}
		if cfg.ShortWindow != 5*time.Second {
			t.Errorf("ShortWindow = %v, want Window/12 = 5s", cfg.ShortWindow)
		}
	})
}

// TestSLOStateMachine drives a tenant OK -> WARN -> BREACH -> OK through the
// deterministic sim clock and checks every transition Evaluate surfaces.
func TestSLOStateMachine(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		s.Set("victim", sloTestConfig())

		// Healthy traffic: exactly at the quantile, no transitions.
		observeN(s, "victim", 100, 0)
		if tr := s.Evaluate(); len(tr) != 0 {
			t.Fatalf("healthy traffic produced transitions: %+v", tr)
		}
		st, ok := s.Status("victim")
		if !ok || st.State != SLOOK {
			t.Fatalf("Status = %+v, want ok", st)
		}

		// The short window spans this bucket plus the healthy one before
		// it (200 reads); 20 bad burns exactly the 10% budget: burn rate
		// 1 => WARN, not BREACH (the breach burn is 4).
		env.Sleep(time.Second)
		observeN(s, "victim", 80, 0)
		observeN(s, "victim", 20, 2*time.Millisecond)
		tr := s.Evaluate()
		if len(tr) != 1 || tr[0].From != SLOOK || tr[0].To != SLOWarn {
			t.Fatalf("transitions = %+v, want ok->warn", tr)
		}
		if got := tr[0].Status.BurnShort; got < 0.9 || got > 1.1 {
			t.Errorf("warn BurnShort = %v, want ~1", got)
		}

		// A bucket of 100% bad reads pushes the short-window burn past
		// the breach burn while the long window is still hot => BREACH.
		env.Sleep(time.Second)
		observeN(s, "victim", 100, 5*time.Millisecond)
		tr = s.Evaluate()
		if len(tr) != 1 || tr[0].From != SLOWarn || tr[0].To != SLOBreach {
			t.Fatalf("transitions = %+v, want warn->breach", tr)
		}
		if tr[0].Status.BurnShort < 4 {
			t.Errorf("breach BurnShort = %v, want >= 4", tr[0].Status.BurnShort)
		}
		if tr[0].Status.BudgetRemaining != 0 {
			t.Errorf("breach BudgetRemaining = %v, want 0", tr[0].Status.BudgetRemaining)
		}

		// Recovery: two buckets of healthy traffic empty the short window,
		// which gates both WARN and BREACH => back to OK.
		for i := 0; i < 2; i++ {
			env.Sleep(time.Second)
			observeN(s, "victim", 100, 0)
		}
		tr = s.Evaluate()
		if len(tr) != 1 || tr[0].From != SLOBreach || tr[0].To != SLOOK {
			t.Fatalf("transitions = %+v, want breach->ok", tr)
		}
	})
}

// TestSLOIdleDecay checks that a breaching tenant with no traffic at all
// decays back to OK once the long window rotates past the bad buckets.
func TestSLOIdleDecay(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		s.Set("idle", sloTestConfig())
		observeN(s, "idle", 100, time.Minute) // all bad
		tr := s.Evaluate()
		if len(tr) != 1 || tr[0].To != SLOBreach {
			t.Fatalf("transitions = %+v, want ->breach", tr)
		}

		// Silence for longer than the long window: every bucket rotates
		// to zero and an empty window burns nothing.
		env.Sleep(13 * time.Second)
		tr = s.Evaluate()
		if len(tr) != 1 || tr[0].From != SLOBreach || tr[0].To != SLOOK {
			t.Fatalf("transitions = %+v, want breach->ok", tr)
		}
		st, _ := s.Status("idle")
		if st.Good != 0 || st.Bad != 0 {
			t.Errorf("counts after decay = %d good / %d bad, want 0/0", st.Good, st.Bad)
		}
	})
}

// TestSLOShedBudget checks that shed reads count as bad but the shed budget
// widens the denominator: the same shed-only traffic burns half as fast when
// ShedBudget doubles the error budget.
func TestSLOShedBudget(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		cfg := sloTestConfig()
		cfg.Quantile = 0.5 // budget 0.5
		s.Set("strict", cfg)
		cfg.ShedBudget = 0.5 // budget 1.0
		s.Set("lenient", cfg)

		for i := 0; i < 10; i++ {
			s.Observe("strict", 0, true)
			s.Observe("lenient", 0, true)
		}
		s.Evaluate()
		strict, _ := s.Status("strict")
		lenient, _ := s.Status("lenient")
		if strict.Shed != 10 || strict.Bad != 10 || strict.Good != 0 {
			t.Fatalf("strict counts = %+v, want 10 shed = 10 bad, 0 good", strict)
		}
		if strict.BurnLong != 2 {
			t.Errorf("strict BurnLong = %v, want 2 (all bad / 0.5 budget)", strict.BurnLong)
		}
		if lenient.BurnLong != 1 {
			t.Errorf("lenient BurnLong = %v, want 1 (all bad / 1.0 budget)", lenient.BurnLong)
		}
	})
}

// TestSLOSetResets checks that replacing an objective clears the windows and
// committed state.
func TestSLOSetResets(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		s.Set("a", sloTestConfig())
		observeN(s, "a", 50, time.Second)
		if tr := s.Evaluate(); len(tr) != 1 || tr[0].To != SLOBreach {
			t.Fatalf("transitions = %+v, want ->breach", tr)
		}
		s.Set("a", sloTestConfig())
		st, ok := s.Status("a")
		if !ok || st.State != SLOOK || st.Bad != 0 {
			t.Fatalf("after re-Set: %+v, want ok with empty windows", st)
		}
	})
}

func TestSLONilAndUnknownTenantSafe(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		var nilT *SLOTracker
		nilT.Set("a", SLOConfig{})
		nilT.Observe("a", 0, false)
		nilT.Remove("a")
		if tr := nilT.Evaluate(); tr != nil {
			t.Errorf("nil Evaluate = %+v, want nil", tr)
		}
		if _, ok := nilT.Status("a"); ok {
			t.Error("nil Status ok = true")
		}
		if snap := nilT.Snapshot(); snap != nil {
			t.Errorf("nil Snapshot = %+v, want nil", snap)
		}
		if _, ok := nilT.Config("a"); ok {
			t.Error("nil Config ok = true")
		}

		s := NewSLOTracker(env)
		s.Observe("ghost", time.Hour, true) // no objective: ignored
		if tr := s.Evaluate(); len(tr) != 0 {
			t.Errorf("ghost tenant produced transitions: %+v", tr)
		}
		s.Set("real", sloTestConfig())
		s.Remove("real")
		if _, ok := s.Status("real"); ok {
			t.Error("Status ok after Remove")
		}
	})
}

// TestSLOSnapshotSorted checks Snapshot determinism (sorted by tenant).
func TestSLOSnapshotSorted(t *testing.T) {
	runSLOSim(t, func(env conc.Env) {
		s := NewSLOTracker(env)
		for _, name := range []string{"zeta", "alpha", "mid"} {
			s.Set(name, sloTestConfig())
		}
		snap := s.Snapshot()
		if len(snap) != 3 {
			t.Fatalf("Snapshot len = %d, want 3", len(snap))
		}
		for i := 1; i < len(snap); i++ {
			if snap[i-1].Tenant >= snap[i].Tenant {
				t.Fatalf("Snapshot not sorted: %q before %q", snap[i-1].Tenant, snap[i].Tenant)
			}
		}
	})
}

// TestAttributeSharesSumToOne is the property test from the acceptance
// criteria: for arbitrary wait mixes — including the cache, tier, and
// throttle buckets — every share stays in [0, 1] and the seven shares sum
// to 1.
func TestAttributeSharesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randDur := func() time.Duration {
		// Mix zeros, small, and oversized (> window) values.
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Int63n(int64(time.Second)))
		default:
			return time.Duration(rng.Int63n(int64(10 * time.Second)))
		}
	}
	for i := 0; i < 1000; i++ {
		in := AttributionInput{
			Window:       time.Duration(rng.Int63n(int64(2 * time.Second))),
			Consumers:    rng.Intn(8), // includes 0: clamped to 1
			ConsumerWait: randDur(),
			StorageWait:  randDur(),
			BufferWait:   randDur(),
			IPCOverhead:  randDur(),
			CacheWait:    randDur(),
			TierWait:     randDur(),
			ThrottleWait: randDur(),
		}
		a := Attribute(in)
		shares := []float64{
			a.StorageShare, a.BufferFullShare, a.IPCShare,
			a.CacheShare, a.TierShare, a.ThrottleShare, a.ConsumerShare,
		}
		sum := 0.0
		for _, sh := range shares {
			if sh < 0 || sh > 1 {
				t.Fatalf("case %d: share out of range: %+v", i, a)
			}
			sum += sh
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("case %d: shares sum to %v, want 1 (%+v)", i, sum, a)
		}
	}
}

// TestAttributeSpansServingChain checks that cache-coalesce, tier, and
// throttle spans land in their own blame buckets.
func TestAttributeSpansServingChain(t *testing.T) {
	spans := []Span{
		{Stage: StageConsumerWait, At: 0, Latency: 400 * time.Millisecond,
			StorageWait: 100 * time.Millisecond, BufferWait: 50 * time.Millisecond},
		{Stage: StageCacheCoalesce, At: 0, Latency: 100 * time.Millisecond},
		{Stage: StageTierPromote, At: 100 * time.Millisecond, Latency: 40 * time.Millisecond},
		{Stage: StageDecompress, At: 200 * time.Millisecond, Latency: 40 * time.Millisecond},
		{Stage: StageTierWarm, At: 300 * time.Millisecond, Latency: 20 * time.Millisecond},
		{Stage: StageTenantThrottle, At: 400 * time.Millisecond, Latency: 200 * time.Millisecond},
		{Stage: StageCacheHit, At: 500 * time.Millisecond, Latency: 500 * time.Millisecond},
	}
	// Window: 0 .. max end = 1s.
	a := AttributeSpans(spans, 1)
	if a.Window != time.Second {
		t.Fatalf("Window = %v, want 1s", a.Window)
	}
	if a.CacheWait != 100*time.Millisecond {
		t.Errorf("CacheWait = %v, want 100ms (coalesce only, hits are free)", a.CacheWait)
	}
	if a.TierWait != 100*time.Millisecond {
		t.Errorf("TierWait = %v, want 100ms (promote+decode+warm)", a.TierWait)
	}
	if a.ThrottleWait != 200*time.Millisecond {
		t.Errorf("ThrottleWait = %v, want 200ms", a.ThrottleWait)
	}
	if a.CacheShare != 0.1 || a.TierShare != 0.1 || a.ThrottleShare != 0.2 {
		t.Errorf("shares = cache %v tier %v throttle %v, want 0.1/0.1/0.2",
			a.CacheShare, a.TierShare, a.ThrottleShare)
	}
	sum := a.StorageShare + a.BufferFullShare + a.IPCShare +
		a.CacheShare + a.TierShare + a.ThrottleShare + a.ConsumerShare
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}
