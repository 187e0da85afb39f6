package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// testBackend builds a modeled backend with n files of the given size over
// a device with per-read latency lat and c channels.
func testBackend(env conc.Env, n int, size int64, lat time.Duration, channels int) (*storage.ModeledBackend, []string) {
	samples := make([]dataset.Sample, n)
	names := make([]string, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%04d", i), Size: size}
		names[i] = samples[i].Name
	}
	m := dataset.MustNew(samples)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		BaseLatency:    lat,
		BytesPerSecond: 1e15, // transfer time negligible
		Channels:       channels,
	})
	if err != nil {
		panic(err)
	}
	return storage.NewModeledBackend(m, dev), names
}

// take is the test-side mirror of the Stage read path: claim the plan
// entry, wait for the sample, resolve the claim.
func take(st *Stage, name string) (Item, bool) {
	claim, ok := st.plans.claimName(name)
	if !ok {
		return Item{}, false
	}
	it, err := st.buffer.Take(claim.PlanPos, TakeOptions{Deadline: time.Duration(st.takeDL.Load())})
	if err != nil {
		st.plans.unclaim(claim)
		return Item{}, false
	}
	st.plans.deliver(claim)
	return it, true
}

// producers reports the stage's (target, running) producer counts.
func producers(st *Stage) (target, running int) {
	s := st.Stats()
	return s.TargetProducers, s.RunningProducers
}

func pfConfig(t, n int) StageConfig {
	return StageConfig{
		InitialProducers:      t,
		MaxProducers:          32,
		InitialBufferCapacity: n,
		MaxBufferCapacity:     4096,
	}
}

func TestStageConfigValidate(t *testing.T) {
	bad := []StageConfig{
		{InitialProducers: 0, MaxProducers: 1, InitialBufferCapacity: 1, MaxBufferCapacity: 1},
		{InitialProducers: 2, MaxProducers: 1, InitialBufferCapacity: 1, MaxBufferCapacity: 1},
		{InitialProducers: 1, MaxProducers: 1, InitialBufferCapacity: 0, MaxBufferCapacity: 1},
		{InitialProducers: 1, MaxProducers: 1, InitialBufferCapacity: 2, MaxBufferCapacity: 1},
		{InitialProducers: 1, MaxProducers: 1, InitialBufferCapacity: 1, MaxBufferCapacity: 1, BufferAccessCost: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultStageConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestStageNeedsManifest: a stage is built over the dataset manifest,
// whose index is its name table; without one it is not built.
func TestStageNeedsManifest(t *testing.T) {
	if _, err := NewStage(conc.NewReal(), storage.NewMemBackend(), nil, pfConfig(1, 4)); err == nil {
		t.Fatal("NewStage without a manifest succeeded")
	}
}

func TestPrefetcherDeliversPlannedFiles(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 20, 1000, time.Millisecond, 4)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		if _, err := st.SubmitEpoch(names); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			it, ok := take(st, n)
			if !ok || it.Err != nil || it.Name != n {
				t.Fatalf("Take(%s) = %+v, %v", n, it, ok)
			}
		}
		if st.Stats().PrefetchedFiles != 20 {
			t.Errorf("PrefetchedFiles = %d, want 20", st.Stats().PrefetchedFiles)
		}
		st.Close()
	})
}

func TestPrefetcherRespectsProducerLimit(t *testing.T) {
	// With t=3 producers, at most 3 threads read concurrently even though
	// the device has 8 channels.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var dist map[int]time.Duration
	s.Spawn("driver", func(*sim.Process) {
		backend, names := testBackend(env, 30, 1000, time.Millisecond, 8)
		readers := storage.NewReaderCount(env, backend)
		st, _ := NewStage(env, readers, testManifest(names, 1000), pfConfig(3, 64))
		st.Start()
		_, _ = st.SubmitEpoch(names)
		for _, n := range names {
			it, ok := take(st, n)
			if !ok || it.Err != nil {
				t.Errorf("Take(%s) failed", n)
			}
		}
		dist = readers.Distribution()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if max := metrics.MaxValue(dist); max != 3 {
		t.Fatalf("max concurrent readers = %d, want 3", max)
	}
}

func TestPrefetcherReadsInPlanOrder(t *testing.T) {
	// With a single producer, files must hit the device in plan order.
	runSim(t, func(env conc.Env) {
		samples := []dataset.Sample{{Name: "a", Size: 1}, {Name: "b", Size: 1}, {Name: "c", Size: 1}}
		m := dataset.MustNew(samples)
		dev, _ := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e12, Channels: 1})
		var order []string
		rec := &recordingBackend{inner: storage.NewModeledBackend(m, dev), order: &order}
		st, _ := NewStage(env, rec, m, pfConfig(1, 8))
		st.Start()
		_, _ = st.SubmitEpoch([]string{"b", "c", "a"})
		for _, n := range []string{"b", "c", "a"} {
			_, _ = take(st, n)
		}
		st.Close()
		want := "b,c,a"
		got := ""
		for i, n := range order {
			if i > 0 {
				got += ","
			}
			got += n
		}
		if got != want {
			t.Fatalf("device order = %s, want %s", got, want)
		}
	})
}

type recordingBackend struct {
	inner storage.Backend
	order *[]string
}

func (r *recordingBackend) Read(req storage.Request) (storage.Response, error) {
	*r.order = append(*r.order, req.Name)
	return r.inner.Read(req)
}

func TestPrefetcherSetProducersScalesUp(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 40, 1000, time.Millisecond, 8)
		readers := storage.NewReaderCount(env, backend)
		st, _ := NewStage(env, readers, testManifest(names, 1000), pfConfig(1, 64))
		st.Start()
		st.SetProducers(6)
		if target, running := producers(st); target != 6 || running != 6 {
			t.Fatalf("Producers = %d/%d, want 6/6", target, running)
		}
		_, _ = st.SubmitEpoch(names)
		for _, n := range names {
			_, _ = take(st, n)
		}
		if max := metrics.MaxValue(readers.Distribution()); max != 6 {
			t.Errorf("max concurrent readers = %d, want 6", max)
		}
		st.Close()
	})
}

func TestPrefetcherSetProducersScalesDown(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 10, 1000, time.Millisecond, 8)
		st, _ := NewStage(env, backend, testManifest(names, 1000), pfConfig(4, 64))
		st.Start()
		_, _ = st.SubmitEpoch(names[:5])
		for _, n := range names[:5] {
			_, _ = take(st, n)
		}
		st.SetProducers(1)
		// Surplus producers retire after their next dequeue attempt; feed
		// the queue so blocked producers cycle.
		_, _ = st.SubmitEpoch(names[5:])
		for _, n := range names[5:] {
			_, _ = take(st, n)
		}
		env.Sleep(10 * time.Millisecond)
		if target, _ := producers(st); target != 1 {
			t.Fatalf("target = %d, want 1", target)
		}
		st.Close()
	})
}

func TestPrefetcherClampsToMaxProducers(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 1, 1, time.Millisecond, 1)
		cfg := pfConfig(1, 4)
		cfg.MaxProducers = 4
		st, _ := NewStage(env, backend, testManifest(names, 1), cfg)
		st.Start()
		st.SetProducers(100)
		if target, _ := producers(st); target != 4 {
			t.Fatalf("target = %d, want clamp to 4", target)
		}
		st.Close()
	})
}

func TestPrefetcherErrorReachesConsumer(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 2)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailName("f0001")
		st, _ := NewStage(env, faulty, testManifest(names, 1000), pfConfig(2, 8))
		st.Start()
		_, _ = st.SubmitEpoch(names)
		for _, n := range names {
			it, ok := take(st, n)
			if !ok {
				t.Fatalf("Take(%s) closed", n)
			}
			if n == "f0001" {
				if !errors.Is(it.Err, storage.ErrInjected) {
					t.Errorf("Take(f0001).Err = %v, want injected fault", it.Err)
				}
			} else if it.Err != nil {
				t.Errorf("Take(%s).Err = %v, want nil", n, it.Err)
			}
		}
		if st.Stats().ReadErrors != 1 {
			t.Errorf("ReadErrors = %d, want 1", st.Stats().ReadErrors)
		}
		st.Close()
	})
}

func TestPrefetcherPlannedBookkeeping(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 2)
		st, _ := NewStage(env, backend, testManifest(names, 1000), pfConfig(1, 8))
		st.Start()
		if ps := st.Stats().Plan; ps.EntriesPending != 0 {
			t.Errorf("%d entries pending before SubmitEpoch", ps.EntriesPending)
		}
		_, _ = st.SubmitEpoch(names[:2])
		if ps := st.Stats().Plan; ps.EntriesPending != 2 {
			t.Errorf("%d entries pending after SubmitEpoch, want 2", ps.EntriesPending)
		}
		if _, ok := take(st, "f0003"); ok {
			t.Error("unplanned file claimed")
		}
		_, _ = take(st, "f0000")
		if ps := st.Stats().Plan; ps.EntriesPending != 1 || ps.Delivered != 1 {
			t.Errorf("PlanStats after consumption = %+v, want 1 pending / 1 delivered", ps)
		}
		st.Close()
	})
}

func TestPrefetcherMultiEpochPlan(t *testing.T) {
	// The same file planned for two epochs is prefetched and consumable
	// twice.
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 2, 1000, time.Millisecond, 2)
		st, _ := NewStage(env, backend, testManifest(names, 1000), pfConfig(1, 8))
		st.Start()
		_, _ = st.SubmitEpoch([]string{"f0000", "f0001"})
		_, _ = st.SubmitEpoch([]string{"f0001", "f0000"})
		for _, n := range []string{"f0000", "f0001", "f0001", "f0000"} {
			it, ok := take(st, n)
			if !ok || it.Err != nil {
				t.Fatalf("Take(%s) = %+v, %v", n, it, ok)
			}
		}
		if st.Stats().PrefetchedFiles != 4 {
			t.Errorf("PrefetchedFiles = %d, want 4", st.Stats().PrefetchedFiles)
		}
		st.Close()
	})
}

func TestPrefetcherCloseIdempotentAndRejectsPlans(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 2, 1000, time.Millisecond, 1)
		st, _ := NewStage(env, backend, testManifest(names, 1000), pfConfig(1, 4))
		st.Start()
		st.Close()
		st.Close()
		if _, err := st.SubmitEpoch(names); err != ErrClosed {
			t.Fatalf("SubmitEpoch after Close = %v, want ErrClosed", err)
		}
	})
}

func TestPrefetcherStartsBeforeEpoch(t *testing.T) {
	// The paper credits PRISMA's PyTorch wins to prefetching starting
	// before the epoch begins: after SubmitEpoch and a head start, the
	// buffer should already hold samples before any consumer arrives.
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 20, 1000, time.Millisecond, 4)
		st, _ := NewStage(env, backend, testManifest(names, 1000), pfConfig(4, 8))
		st.Start()
		_, _ = st.SubmitEpoch(names)
		env.Sleep(50 * time.Millisecond) // head start
		if got := st.buffer.Len(); got != 8 {
			t.Fatalf("buffer holds %d samples after head start, want full at 8", got)
		}
		st.Close()
	})
}

func TestPrefetcherFaultDoesNotStallOthers(t *testing.T) {
	// A producer stuck retrying one faulted file must not hold back the
	// other in-flight producers: every healthy sample is delivered while
	// the faulted one is still in its backoff sleeps, and the fault then
	// surfaces on exactly its own Item.Err.
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 8, 1000, time.Millisecond, 4)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailName("f0001") // persistent: retries cannot save it
		resilient, err := storage.NewResilientBackend(env, faulty, storage.ResilienceConfig{
			MaxAttempts:   3,
			BaseBackoff:   20 * time.Millisecond, // dwarfs the 1ms healthy reads
			BackoffFactor: 2,
			JitterSeed:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := NewStage(env, resilient, testManifest(names, 1000), pfConfig(4, 16))
		st.Start()
		_, _ = st.SubmitEpoch(names)
		for _, n := range names {
			if n == "f0001" {
				continue
			}
			it, ok := take(st, n)
			if !ok || it.Err != nil {
				t.Fatalf("Take(%s) = %+v, %v while fault in flight", n, it, ok)
			}
		}
		// All healthy samples arrived while f0001 was still retrying (its
		// two backoff sleeps alone span >= 30ms of virtual time).
		if now := env.Now(); now >= 30*time.Millisecond {
			t.Errorf("healthy samples took %v, stalled behind the faulted read", now)
		}
		it, ok := take(st, "f0001")
		if !ok {
			t.Fatal("Take(f0001) closed")
		}
		if !errors.Is(it.Err, storage.ErrInjected) {
			t.Errorf("Take(f0001).Err = %v, want injected fault", it.Err)
		}
		if st.Stats().ReadErrors != 1 {
			t.Errorf("ReadErrors = %d, want 1", st.Stats().ReadErrors)
		}
		st.Close()
	})
}

func TestPrefetcherTransientFaultRetriedToSuccess(t *testing.T) {
	// A fault that heals within the retry budget must be invisible to the
	// consumer: the sample arrives with no error, only the resilience
	// counters show the struggle.
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 2)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailNTimes("f0002", 2)
		resilient, err := storage.NewResilientBackend(env, faulty, storage.ResilienceConfig{
			MaxAttempts:   4,
			BaseBackoff:   time.Millisecond,
			BackoffFactor: 2,
			JitterSeed:    9,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := NewStage(env, resilient, testManifest(names, 1000), pfConfig(2, 8))
		st.Start()
		_, _ = st.SubmitEpoch(names)
		for _, n := range names {
			it, ok := take(st, n)
			if !ok || it.Err != nil {
				t.Fatalf("Take(%s) = %+v, %v", n, it, ok)
			}
		}
		if st.Stats().ReadErrors != 0 {
			t.Errorf("ReadErrors = %d, want 0 (fault healed within retries)", st.Stats().ReadErrors)
		}
		rs := resilient.ResilienceStats()
		if rs.Retries < 2 {
			t.Errorf("Retries = %d, want >= 2", rs.Retries)
		}
		if rs.Exhausted != 0 {
			t.Errorf("Exhausted = %d, want 0", rs.Exhausted)
		}
		st.Close()
	})
}

// TestSetProducersFloor: t is clamped to [1, MaxProducers]. With zero
// producers every planned read would wait for a sample nobody reads — until
// its take deadline, or until Close without one.
func TestSetProducersFloor(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 1)
		cfg := pfConfig(2, 8)
		cfg.TakeDeadline = time.Second
		st, err := NewStage(env, backend, testManifest(names, 1000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		for _, n := range []int{0, -1} {
			st.SetProducers(n)
			if target, _ := producers(st); target != 1 {
				t.Fatalf("SetProducers(%d): t = %d, want 1", n, target)
			}
		}
		if err := st.SubmitPlan(names); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatalf("planned read of %s: %v", n, err)
			}
		}
		if s := st.Stats(); s.Hits != int64(len(names)) || s.Bypasses != 0 {
			t.Fatalf("hits %d, bypasses %d; want every read served from the buffer", s.Hits, s.Bypasses)
		}
		st.Close()
	})
}
