package storage

import (
	"errors"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// testResilience is a fast, deterministic policy for unit tests.
func testResilience() ResilienceConfig {
	return ResilienceConfig{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		BackoffFactor:    2,
		JitterSeed:       7,
		BreakerThreshold: 4,
		BreakerCooldown:  20 * time.Millisecond,
		HalfOpenProbes:   1,
	}
}

// newResilientOverFaulty builds modeled -> faulty -> resilient over the
// three-file manifest.
func newResilientOverFaulty(t *testing.T, env conc.Env, cfg ResilienceConfig) (*ResilientBackend, *FaultyBackend) {
	t.Helper()
	dev, err := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
	res, err := NewResilientBackend(env, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, faulty
}

func TestResilienceConfigValidate(t *testing.T) {
	if err := DefaultResilienceConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []ResilienceConfig{
		{MaxAttempts: 0, BackoffFactor: 2, MaxBackoff: 1},
		{MaxAttempts: 1, BackoffFactor: 0.5, MaxBackoff: 1},
		{MaxAttempts: 1, BackoffFactor: 2, BaseBackoff: 2, MaxBackoff: 1},
		{MaxAttempts: 1, BackoffFactor: 2, MaxBackoff: 1, ReadDeadline: -1},
		{MaxAttempts: 1, BackoffFactor: 2, MaxBackoff: 1, BreakerThreshold: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestResilientRetriesTransientFault(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, faulty := newResilientOverFaulty(t, env, testResilience())
		faulty.FailNTimes("a", 2) // heals within the 3-attempt budget
		d, err := readFile(res, "a")
		if err != nil || d.Size != 1000 {
			t.Fatalf("ReadFile = %+v, %v, want healed success", d, err)
		}
		st := res.ResilienceStats()
		if st.Retries != 2 || st.Failures != 2 || st.Attempts != 3 || st.Exhausted != 0 {
			t.Errorf("stats = %+v, want 2 retries over 3 attempts", st)
		}
		if st.State != "closed" || st.Degraded {
			t.Errorf("breaker = %s degraded=%v, want closed", st.State, st.Degraded)
		}
	})
}

func TestResilientExhaustsAttempts(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, faulty := newResilientOverFaulty(t, env, testResilience())
		faulty.FailName("b") // persistent: outlives the attempt budget
		_, err := readFile(res, "b")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v, want wrapped ErrInjected", err)
		}
		st := res.ResilienceStats()
		if st.Exhausted != 1 || st.Attempts != 3 {
			t.Errorf("stats = %+v, want 1 exhausted read of 3 attempts", st)
		}
	})
}

func TestResilientDoesNotRetryMissingFiles(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, _ := newResilientOverFaulty(t, env, testResilience())
		_, err := readFile(res, "ghost")
		var ne *NotExistError
		if !errors.As(err, &ne) {
			t.Fatalf("err = %v, want NotExistError", err)
		}
		st := res.ResilienceStats()
		if st.Attempts != 1 || st.Retries != 0 || st.Failures != 0 {
			t.Errorf("stats = %+v, want a single clean attempt", st)
		}
	})
}

func TestResilientBreakerOpensAndFastFails(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, faulty := newResilientOverFaulty(t, env, testResilience())
		faulty.FailName("a")
		// 4 consecutive failed attempts trip the breaker: the first read
		// burns 3, the second read's first attempt is the 4th.
		_, _ = readFile(res, "a")
		_, err := readFile(res, "a")
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("second read err = %v, want breaker fast-fail", err)
		}
		if res.State() != BreakerOpen {
			t.Fatalf("state = %v, want open", res.State())
		}
		// While open, reads shed without touching the backend.
		before := faulty.Injected()
		if _, err := readFile(res, "b"); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-breaker read err = %v, want ErrCircuitOpen", err)
		}
		if faulty.Injected() != before {
			t.Error("fast-failed read reached the backend")
		}
		st := res.ResilienceStats()
		if st.BreakerOpens != 1 || st.FastFails < 1 || !st.Degraded {
			t.Errorf("stats = %+v, want 1 open and fast fails", st)
		}
	})
}

// TestResilientSuccessResetsConsecutiveFailures: the breaker counts
// consecutive failed attempts, so a success after a run of failures shorter
// than the threshold starts the count again — three reads that each fail
// twice before succeeding (six failures in all, threshold four) leave the
// breaker closed.
func TestResilientSuccessResetsConsecutiveFailures(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, faulty := newResilientOverFaulty(t, env, testResilience())
		for i := 0; i < 3; i++ {
			faulty.FailNTimes("a", 2)
			if _, err := readFile(res, "a"); err != nil {
				t.Fatalf("read %d: %v, want success on its third attempt", i, err)
			}
		}
		if st := res.ResilienceStats(); res.State() != BreakerClosed || st.BreakerOpens != 0 || st.Failures != 6 {
			t.Fatalf("state %v, stats %+v; want closed, no opens, 6 failures", res.State(), st)
		}
	})
}

func TestResilientBreakerHalfOpenRecovery(t *testing.T) {
	runSim(t, func(env conc.Env) {
		cfg := testResilience()
		res, faulty := newResilientOverFaulty(t, env, cfg)
		faulty.FailName("a")
		_, _ = readFile(res, "a")
		_, _ = readFile(res, "a") // trips the breaker
		if res.State() != BreakerOpen {
			t.Fatalf("state = %v, want open", res.State())
		}
		faulty.Heal()
		env.Sleep(cfg.BreakerCooldown)
		// First read after the cooldown is the half-open probe; it succeeds
		// and closes the breaker.
		if d, err := readFile(res, "b"); err != nil || d.Size != 2000 {
			t.Fatalf("probe read = %+v, %v, want success", d, err)
		}
		if res.State() != BreakerClosed {
			t.Fatalf("state = %v, want closed after probe", res.State())
		}
		durations := res.StateDurations()
		if durations[int(BreakerOpen)] < cfg.BreakerCooldown {
			t.Errorf("open-state time = %v, want >= cooldown", durations[int(BreakerOpen)])
		}
	})
}

func TestResilientBreakerReopensOnFailedProbe(t *testing.T) {
	runSim(t, func(env conc.Env) {
		cfg := testResilience()
		cfg.MaxAttempts = 1 // make each read one attempt for precise counting
		res, faulty := newResilientOverFaulty(t, env, cfg)
		faulty.FailName("a")
		for i := 0; i < cfg.BreakerThreshold; i++ {
			_, _ = readFile(res, "a")
		}
		if res.State() != BreakerOpen {
			t.Fatalf("state = %v, want open", res.State())
		}
		env.Sleep(cfg.BreakerCooldown)
		if _, err := readFile(res, "a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("probe err = %v, want injected failure", err)
		}
		if res.State() != BreakerOpen {
			t.Fatalf("state = %v, want reopened", res.State())
		}
		if st := res.ResilienceStats(); st.BreakerOpens != 2 {
			t.Errorf("BreakerOpens = %d, want 2", st.BreakerOpens)
		}
	})
}

func TestResilientReadDeadline(t *testing.T) {
	runSim(t, func(env conc.Env) {
		cfg := testResilience()
		cfg.MaxAttempts = 2
		cfg.ReadDeadline = 5 * time.Millisecond
		res, faulty := newResilientOverFaulty(t, env, cfg)
		faulty.SetLatency(50 * time.Millisecond) // every attempt blows the deadline
		_, err := readFile(res, "a")
		if !errors.Is(err, ErrReadDeadline) {
			t.Fatalf("err = %v, want ErrReadDeadline", err)
		}
		st := res.ResilienceStats()
		if st.DeadlineExceeded != 2 {
			t.Errorf("DeadlineExceeded = %d, want 2", st.DeadlineExceeded)
		}
		// Heal the latency: the same file now reads within the deadline.
		faulty.SetLatency(0)
		if d, err := readFile(res, "a"); err != nil || d.Size != 1000 {
			t.Fatalf("healed read = %+v, %v", d, err)
		}
	})
}

func TestResilientBackoffDeterministic(t *testing.T) {
	// Two sim runs with the same jitter seed must retry at identical
	// virtual instants.
	timeline := func() []time.Duration {
		var out []time.Duration
		runSim(t, func(env conc.Env) {
			res, faulty := newResilientOverFaulty(t, env, testResilience())
			faulty.FailName("a")
			start := env.Now()
			_, _ = readFile(res, "a")
			out = append(out, env.Now()-start)
			faulty.FailNTimes("b", 2)
			start = env.Now()
			_, _ = readFile(res, "b")
			out = append(out, env.Now()-start)
		})
		return out
	}
	first, second := timeline(), timeline()
	if len(first) != len(second) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestResilientBatchRetries proves the retry machinery covers vectored
// reads: an injected transient failure on the batch is retried and the
// whole vector delivered, with the attempt counted like any other read.
func TestResilientBatchRetries(t *testing.T) {
	runSim(t, func(env conc.Env) {
		res, faulty := newResilientOverFaulty(t, env, testResilience())
		faulty.FailNTimes("c", 1)
		out, err := readBatch(res, "c", []Range{{Off: 0, N: 100}, {Off: 100, N: 200}}, nil)
		if err != nil {
			t.Fatalf("batched read after transient fault: %v", err)
		}
		if len(out) != 2 || out[0].Size != 100 || out[1].Size != 200 {
			t.Fatalf("batch = %+v, want sizes 100 and 200", out)
		}
		st := res.ResilienceStats()
		if st.Retries != 1 {
			t.Errorf("Retries = %d, want 1", st.Retries)
		}
		if st.UnsupportedOps != 0 {
			t.Errorf("UnsupportedOps = %d, want 0 (batch is supported)", st.UnsupportedOps)
		}
	})
}

func TestFaultyBackendTransientHeals(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		f := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
		f.FailNTimes("a", 2)
		for i := 0; i < 2; i++ {
			if _, err := readFile(f, "a"); !errors.Is(err, ErrInjected) {
				t.Fatalf("attempt %d err = %v, want injected", i, err)
			}
		}
		if _, err := readFile(f, "a"); err != nil {
			t.Fatalf("healed read failed: %v", err)
		}
		if f.Injected() != 2 {
			t.Errorf("Injected = %d, want 2", f.Injected())
		}
	})
}

func TestFaultyBackendFailNextBlackout(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		f := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
		f.FailNext(3)
		names := []string{"a", "b", "c", "a"}
		var fails int
		for _, n := range names {
			if _, err := readFile(f, n); err != nil {
				fails++
			}
		}
		if fails != 3 {
			t.Errorf("fails = %d, want blackout of 3", fails)
		}
	})
}

func TestFaultyBackendInjectedLatency(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 1})
		f := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
		f.SetLatency(10 * time.Millisecond)
		start := env.Now()
		if _, err := readFile(f, "a"); err != nil {
			t.Fatal(err)
		}
		if got := env.Now() - start; got < 11*time.Millisecond {
			t.Errorf("read took %v, want >= 11ms with injected latency", got)
		}
		if f.Delayed() != 1 {
			t.Errorf("Delayed = %d, want 1", f.Delayed())
		}
		f.Heal()
		start = env.Now()
		if _, err := readFile(f, "a"); err != nil {
			t.Fatal(err)
		}
		if got := env.Now() - start; got > 2*time.Millisecond {
			t.Errorf("healed read took %v, want device time only", got)
		}
	})
}
