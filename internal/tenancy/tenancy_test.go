package tenancy

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

func runSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestValidation(t *testing.T) {
	runSim(t, func(env conc.Env) {
		if _, err := New(env, Config{}); err == nil {
			t.Fatal("zero capacity accepted")
		}
		m, err := New(env, Config{Capacity: 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(Spec{Name: ""}); err == nil {
			t.Fatal("empty tenant name accepted")
		}
		if err := m.Register(Spec{Name: DefaultTenant}); err == nil {
			t.Fatal("duplicate registration accepted")
		}
		if err := m.Register(Spec{Name: "bad", Weight: -1}); err == nil {
			t.Fatal("negative weight accepted")
		}
		if err := m.Unregister(DefaultTenant); err == nil {
			t.Fatal("default tenant unregistered")
		}
		if err := m.Unregister("ghost"); err == nil {
			t.Fatal("unknown tenant unregistered")
		}
		if err := m.SetTenant("ghost", 2, 0); err == nil {
			t.Fatal("SetTenant on unknown tenant accepted")
		}
	})
}

// TestNonFiniteTenantKnobsRefused: a NaN or infinite weight or byte budget
// is refused where it would land. Let through, an infinite weight turns
// every tenant's grant into NaN at the next arbitration tick, and another
// tenant's Admit then blocks for good. Real clock, bounded waits: the
// test fails rather than hangs if the gate wedges.
func TestNonFiniteTenantKnobsRefused(t *testing.T) {
	m, err := New(conc.NewReal(), Config{Capacity: 1000, TickInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := m.Register(Spec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	m.Start()
	defer m.Stop()
	inf, nan := math.Inf(1), math.NaN()
	setErrs := []error{m.SetTenant("a", inf, 0), m.SetTenant("a", nan, 0), m.SetTenant("a", 0, inf), m.SetTenant("a", 0, nan)}
	time.Sleep(50 * time.Millisecond) // several arbitration ticks

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ { // well past the burst: paced by b's grant
			if err := m.Admit("b"); err != nil {
				t.Errorf("Admit(b): %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("tenant b's Admit still blocked 3s after a non-finite knob was set on tenant a")
	}
	for i, err := range setErrs {
		if err == nil {
			t.Errorf("SetTenant case %d: non-finite knob accepted", i)
		}
	}
	for _, spec := range []Spec{{Name: "w-inf", Weight: inf}, {Name: "w-nan", Weight: nan}, {Name: "b-inf", BytesPerSecond: inf}, {Name: "b-nan", BytesPerSecond: nan}} {
		if err := m.Register(spec); err == nil {
			t.Errorf("Register(%+v) accepted a non-finite knob", spec)
		}
	}
}

func TestAuthenticate(t *testing.T) {
	runSim(t, func(env conc.Env) {
		m, _ := New(env, Config{Capacity: 100})
		if id, err := m.Authenticate("", ""); err != nil || id != DefaultTenant {
			t.Fatalf("untagged hello = %q, %v; want default", id, err)
		}
		_ = m.Register(Spec{Name: "secure", Secret: "s3cret"})
		if _, err := m.Authenticate("secure", "wrong"); err == nil {
			t.Fatal("bad secret accepted")
		}
		if id, err := m.Authenticate("secure", "s3cret"); err != nil || id != "secure" {
			t.Fatalf("good secret = %q, %v", id, err)
		}
		// Unknown tenants self-register with defaults.
		if id, err := m.Authenticate("newcomer", ""); err != nil || id != "newcomer" {
			t.Fatalf("auto-register = %q, %v", id, err)
		}
		if len(m.Stats().Tenants) != 3 {
			t.Fatalf("tenants = %d, want 3", len(m.Stats().Tenants))
		}
	})
}

// TestGreedyTenantCannotStarve is the ISSUE acceptance experiment: one
// greedy tenant (8 workers reading as fast as admitted) and one
// well-behaved tenant (steady 300 reads/s offered load) share a 1000
// reads/s gate. Max-min arbitration must keep the well-behaved tenant's
// admitted throughput within 2x of its fair share (here: at its full
// offered load, which is below the 500/s fair share) while the greedy
// tenant absorbs only the slack.
func TestGreedyTenantCannotStarve(t *testing.T) {
	runSim(t, func(env conc.Env) {
		m, err := New(env, Config{Capacity: 1000, TickInterval: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(Spec{Name: "greedy"}); err != nil {
			t.Fatal(err)
		}
		if err := m.Register(Spec{Name: "polite"}); err != nil {
			t.Fatal(err)
		}
		m.Start()
		defer m.Stop()

		const warmup, run = 2 * time.Second, 3 * time.Second
		greedyN := metrics.NewCounter(env)
		politeN := metrics.NewCounter(env)
		wg := env.NewWaitGroup()
		wg.Add(9)
		for i := 0; i < 8; i++ {
			env.Go("greedy-worker", func() {
				defer wg.Done()
				for env.Now() < warmup+run {
					if err := m.Admit("greedy"); err == nil && env.Now() >= warmup {
						greedyN.Inc()
					}
				}
			})
		}
		env.Go("polite-worker", func() {
			defer wg.Done()
			for env.Now() < warmup+run {
				if err := m.Admit("polite"); err == nil && env.Now() >= warmup {
					politeN.Inc()
				}
				env.Sleep(3333 * time.Microsecond) // ~300 reads/s offered
			}
		})
		wg.Wait()

		politeRate := float64(politeN.Value()) / run.Seconds()
		greedyRate := float64(greedyN.Value()) / run.Seconds()
		// The polite tenant's fair share is 500/s; it offers only ~300/s, and
		// the gate must admit essentially all of it (and never less than half
		// the fair share — the ISSUE's 2x bound).
		if politeRate < 250 {
			t.Fatalf("polite tenant throttled to %.0f reads/s (fair share 500, offered 300)", politeRate)
		}
		// The greedy tenant gets the slack but not the polite tenant's share.
		if greedyRate > 900 {
			t.Fatalf("greedy tenant admitted %.0f reads/s, want bounded by capacity minus polite traffic", greedyRate)
		}
		if total := politeRate + greedyRate; total > 1200 {
			t.Fatalf("total admitted %.0f reads/s exceeds 1000 capacity (+burst tolerance)", total)
		}
	})
}

// TestOverloadShedsAndRecovers drives the gate across an overload episode:
// saturated load makes over-budget admits fail fast with a typed
// retryable OverloadError (never a hang), and when load subsides the gate
// admits again.
func TestOverloadShedsAndRecovers(t *testing.T) {
	runSim(t, func(env conc.Env) {
		depth := 0 // mutable load injected into the gate (same sim process)
		m, err := New(env, Config{
			Capacity:      100,
			Burst:         10,
			MaxQueueDepth: 50,
			MaxRetryAfter: 2 * time.Second,
			Load:          func() Load { return Load{QueueDepth: depth} },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Normal load: admits (blocking throttle), never sheds.
		m.Tick(100 * time.Millisecond)
		if m.Overloaded() {
			t.Fatal("overloaded at zero load")
		}
		if err := m.Admit(DefaultTenant); err != nil {
			t.Fatal(err)
		}

		// Saturate. Burst is 10: the 11th rapid-fire admit must shed.
		depth = 100
		m.Tick(100 * time.Millisecond)
		if !m.Overloaded() {
			t.Fatal("not overloaded past MaxQueueDepth")
		}
		var shed error
		for i := 0; i < 30; i++ {
			if err := m.Admit(DefaultTenant); err != nil {
				shed = err
				break
			}
		}
		if shed == nil {
			t.Fatal("over-budget tenant never shed under overload")
		}
		if !errors.Is(shed, ErrOverloaded) {
			t.Fatalf("shed error %v does not match ErrOverloaded", shed)
		}
		var oe *OverloadError
		if !errors.As(shed, &oe) {
			t.Fatalf("shed error %T is not *OverloadError", shed)
		}
		if oe.RetryAfter <= 0 || oe.RetryAfter > 2*time.Second {
			t.Fatalf("retry-after %v outside (0, MaxRetryAfter]", oe.RetryAfter)
		}
		if m.Stats().Tenants[0].Shed == 0 {
			t.Fatal("shed not counted in stats")
		}

		// Recovery: load subsides, the same tenant is admitted again.
		depth = 0
		m.Tick(100 * time.Millisecond)
		if m.Overloaded() {
			t.Fatal("still overloaded after load subsided")
		}
		if err := m.Admit(DefaultTenant); err != nil {
			t.Fatalf("admit after recovery: %v", err)
		}
	})
}

func TestDegradedScalesCapacity(t *testing.T) {
	runSim(t, func(env conc.Env) {
		degraded := false
		m, _ := New(env, Config{
			Capacity:       1000,
			DegradedFactor: 0.5,
			Load:           func() Load { return Load{Degraded: degraded} },
		})
		m.Tick(100 * time.Millisecond)
		if got := m.Stats().Capacity; got != 1000 {
			t.Fatalf("healthy capacity = %v, want 1000", got)
		}
		degraded = true
		m.Tick(100 * time.Millisecond)
		if got := m.Stats().Capacity; got != 500 {
			t.Fatalf("degraded capacity = %v, want 500", got)
		}
		degraded = false
		m.Tick(100 * time.Millisecond)
		if got := m.Stats().Capacity; got != 1000 {
			t.Fatalf("restored capacity = %v, want 1000", got)
		}
	})
}

// TestByteBudgetDebt: bytes are charged after the read; the debt throttles
// the next admit in normal mode and sheds it under overload.
func TestByteBudgetDebt(t *testing.T) {
	runSim(t, func(env conc.Env) {
		over := 0
		m, _ := New(env, Config{
			Capacity:      1000,
			MaxQueueDepth: 1,
			Load:          func() Load { return Load{QueueDepth: over} },
		})
		_ = m.Register(Spec{Name: "metered", BytesPerSecond: 1000})
		if err := m.Admit("metered"); err != nil {
			t.Fatal(err)
		}
		m.ObserveRead("metered", 3000, nil) // 1s of budget + 2s of debt
		st := m.Stats()
		for _, ts := range st.Tenants {
			if ts.Name == "metered" && !ts.InDebt {
				t.Fatal("metered tenant not in debt after 3000-byte read")
			}
		}
		// Normal mode: the debt throttles (blocks ~2s), never errors.
		start := env.Now()
		if err := m.Admit("metered"); err != nil {
			t.Fatal(err)
		}
		if waited := env.Now() - start; waited < 1500*time.Millisecond || waited > 3*time.Second {
			t.Fatalf("debt throttle waited %v, want ≈2s", waited)
		}
		// Overload + fresh debt: shed with a debt-derived retry hint.
		m.ObserveRead("metered", 2000, nil)
		over = 1
		m.Tick(100 * time.Millisecond)
		err := m.Admit("metered")
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("in-debt admit under overload = %v, want ErrOverloaded", err)
		}
		// Errors count against the tenant but do not charge bytes.
		m.ObserveRead("metered", 0, errors.New("boom"))
		for _, ts := range m.Stats().Tenants {
			if ts.Name == "metered" && ts.Errors != 1 {
				t.Fatalf("errors = %d, want 1", ts.Errors)
			}
		}
	})
}

func TestUnknownTenantFallsBackToDefault(t *testing.T) {
	runSim(t, func(env conc.Env) {
		m, _ := New(env, Config{Capacity: 100})
		if err := m.Admit("never-registered"); err != nil {
			t.Fatal(err)
		}
		for _, ts := range m.Stats().Tenants {
			if ts.Name == DefaultTenant && ts.Admitted != 1 {
				t.Fatalf("default tenant admitted = %d, want 1 (fallback)", ts.Admitted)
			}
		}
	})
}

// TestSLONoisyNeighborLifecycle is the ISSUE's deterministic noisy-neighbor
// sim: a victim tenant with a latency objective is driven WARN -> BREACH ->
// OK purely by observed latencies (the noisy neighbor's contention), and the
// gate's actuation is checked at each step — a breach boosts the victim's
// arbitration weight by SLOBoostFactor, recovery restores the base weight,
// and every transition is surfaced through OnSLOAction for audit.
func TestSLONoisyNeighborLifecycle(t *testing.T) {
	runSim(t, func(env conc.Env) {
		var actions []SLOAction
		m, err := New(env, Config{
			Capacity:       1000,
			TickInterval:   100 * time.Millisecond,
			SLOBoostFactor: 3,
			OnSLOAction:    func(a SLOAction) { actions = append(actions, a) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(Spec{Name: "noisy"}); err != nil {
			t.Fatal(err)
		}
		err = m.Register(Spec{Name: "victim", SLO: &obs.SLOConfig{
			Quantile:    0.9,
			Threshold:   time.Millisecond,
			Window:      12 * time.Second,
			ShortWindow: time.Second,
		}})
		if err != nil {
			t.Fatal(err)
		}
		observe := func(n int, lat time.Duration) {
			for i := 0; i < n; i++ {
				m.ObserveLatency("victim", lat, false)
			}
		}
		victim := func() TenantStats {
			for _, ts := range m.Stats().Tenants {
				if ts.Name == "victim" {
					return ts
				}
			}
			t.Fatal("victim missing from snapshot")
			return TenantStats{}
		}

		// Healthy bucket: everything under threshold, no actions.
		observe(100, 100*time.Microsecond)
		m.Tick(100 * time.Millisecond)
		if len(actions) != 0 {
			t.Fatalf("healthy traffic produced actions: %+v", actions)
		}

		// The noisy neighbor starts inflating tail latency: 20 bad reads
		// over the 200-read short window burn exactly the 10% budget =>
		// WARN, observed but not actuated.
		env.Sleep(time.Second)
		observe(80, 100*time.Microsecond)
		observe(20, 5*time.Millisecond)
		m.Tick(100 * time.Millisecond)
		if len(actions) != 1 || actions[0].Rule != "slo-warn" {
			t.Fatalf("actions = %+v, want [slo-warn]", actions)
		}
		if actions[0].WeightAfter != actions[0].WeightBefore {
			t.Fatalf("warn actuated a weight change: %+v", actions[0])
		}

		// Full-bucket contention => BREACH: the gate boosts the victim's
		// arbitration weight so max-min squeezes the noisy neighbor.
		env.Sleep(time.Second)
		observe(100, 20*time.Millisecond)
		m.Tick(100 * time.Millisecond)
		if len(actions) != 2 || actions[1].Rule != "slo-breach" {
			t.Fatalf("actions = %+v, want slo-breach appended", actions)
		}
		if actions[1].WeightBefore != 1 || actions[1].WeightAfter != 3 {
			t.Fatalf("breach weights = %v -> %v, want 1 -> 3", actions[1].WeightBefore, actions[1].WeightAfter)
		}
		vs := victim()
		if !vs.SLOBoosted || vs.SLO == nil || vs.SLO.State != obs.SLOBreach {
			t.Fatalf("victim snapshot = boosted=%v slo=%+v, want boosted breach", vs.SLOBoosted, vs.SLO)
		}

		// Contention ends: two healthy buckets empty the short window and
		// the gate hands the boost back.
		for i := 0; i < 2; i++ {
			env.Sleep(time.Second)
			observe(100, 100*time.Microsecond)
		}
		m.Tick(100 * time.Millisecond)
		if len(actions) != 3 || actions[2].Rule != "slo-recovered" {
			t.Fatalf("actions = %+v, want slo-recovered appended", actions)
		}
		if actions[2].WeightBefore != 3 || actions[2].WeightAfter != 1 {
			t.Fatalf("recovery weights = %v -> %v, want 3 -> 1", actions[2].WeightBefore, actions[2].WeightAfter)
		}
		vs = victim()
		if vs.SLOBoosted || vs.SLO.State != obs.SLOOK {
			t.Fatalf("victim snapshot after recovery = boosted=%v state=%q, want unboosted ok", vs.SLOBoosted, vs.SLO.State)
		}
	})
}

// TestSLOShedObservations checks the gate's shed accounting reaches the
// tracker: shed reads are bad reads against the shed budget even though no
// latency was measured.
func TestSLOShedObservations(t *testing.T) {
	runSim(t, func(env conc.Env) {
		m, err := New(env, Config{Capacity: 1000, TickInterval: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		err = m.Register(Spec{Name: "a", SLO: &obs.SLOConfig{
			Quantile: 0.9, Threshold: time.Millisecond,
			Window: 12 * time.Second, ShortWindow: time.Second,
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			m.ObserveLatency("a", 0, true)
		}
		st, ok := m.SLO().Status("a")
		if !ok {
			t.Fatal("no SLO status")
		}
		if st.Shed != 10 || st.Bad != 10 || st.Good != 0 {
			t.Fatalf("status = %+v, want 10 shed = 10 bad", st)
		}
		// Shed reads must not pollute the latency histogram.
		for _, ts := range m.Stats().Tenants {
			if ts.Name == "a" && ts.Latency.Count != 0 {
				t.Fatalf("latency count = %d, want 0 (shed reads skip the histogram)", ts.Latency.Count)
			}
		}
	})
}

// TestSetSLOClearSLO checks runtime objective management: SetSLO on a live
// tenant starts tracking, ClearSLO stops it and drops any active boost.
func TestSetSLOClearSLO(t *testing.T) {
	runSim(t, func(env conc.Env) {
		m, err := New(env, Config{Capacity: 1000, TickInterval: 100 * time.Millisecond, SLOBoostFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(Spec{Name: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetSLO("nope", obs.SLOConfig{Threshold: time.Millisecond}); err == nil {
			t.Fatal("SetSLO on unknown tenant accepted")
		}
		if err := m.SetSLO("a", obs.SLOConfig{
			Quantile: 0.9, Threshold: time.Millisecond,
			Window: 12 * time.Second, ShortWindow: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		// Breach it, then clear: the boost must not outlive the objective.
		for i := 0; i < 100; i++ {
			m.ObserveLatency("a", time.Second, false)
		}
		m.Tick(100 * time.Millisecond)
		for _, ts := range m.Stats().Tenants {
			if ts.Name == "a" && !ts.SLOBoosted {
				t.Fatal("breach did not boost")
			}
		}
		m.ClearSLO("a")
		for _, ts := range m.Stats().Tenants {
			if ts.Name == "a" {
				if ts.SLOBoosted {
					t.Fatal("boost survived ClearSLO")
				}
				if ts.SLO != nil {
					t.Fatal("SLO status survived ClearSLO")
				}
			}
		}
	})
}

// TestManagerStartsOnceAndStopsAfterItsSleep: the evaluation loop panics on
// a second Start, probes the load once per TickInterval, and ends after the
// sleep a Stop lands in, leaving nothing running.
func TestManagerStartsOnceAndStopsAfterItsSleep(t *testing.T) {
	const interval = 100 * time.Millisecond
	s := sim.New()
	env := conc.NewSimEnv(s)
	var probes int
	var again any
	s.Spawn("driver", func(*sim.Process) {
		m, err := New(env, Config{Capacity: 100, TickInterval: interval, Load: func() Load { probes++; return Load{} }})
		if err != nil {
			t.Error(err)
			return
		}
		m.Start()
		func() {
			defer func() { again = recover() }()
			m.Start()
		}()
		env.Sleep(interval * 5 / 2)
		m.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Error("a second Start did not panic")
	}
	if probes != 2 || s.Now() != 3*interval {
		t.Errorf("%d ticks, loop ended at %v; want 2 ticks and the end at %v", probes, s.Now(), 3*interval)
	}
}
