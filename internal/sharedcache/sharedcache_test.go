package sharedcache

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
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

func fixture(env conc.Env, n int, size int64, lat time.Duration, channels int) (*storage.ModeledBackend, *storage.Device, []string) {
	samples := make([]dataset.Sample, n)
	names := make([]string, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%04d", i), Size: size}
		names[i] = samples[i].Name
	}
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: lat, BytesPerSecond: 1e15, Channels: channels})
	if err != nil {
		panic(err)
	}
	return storage.NewModeledBackend(dataset.MustNew(samples), dev, nil), dev, names
}

func TestValidation(t *testing.T) {
	env := conc.NewReal()
	if _, err := New(env, nil, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestHitAfterMiss(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 4, 1000, time.Millisecond, 2)
		c, _ := New(env, backend, 1<<20)
		if _, err := readFile(c, names[0]); err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		if _, err := readFile(c, names[0]); err != nil {
			t.Fatal(err)
		}
		if env.Now() != start {
			t.Fatal("cache hit consumed device time")
		}
		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1", dev.Stats().Reads)
		}
		st := c.Stats()
		if st.Hits != 1 || st.Misses != 1 || st.Residents != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if c.HitRate() != 0.5 {
			t.Fatalf("hit rate = %v", c.HitRate())
		}
	})
}

func TestSingleFlightCollapsesConcurrentMisses(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 1, 1000, 10*time.Millisecond, 8)
		c, _ := New(env, backend, 1<<20)
		wg := env.NewWaitGroup()
		wg.Add(5)
		for i := 0; i < 5; i++ {
			env.Go(fmt.Sprintf("job-%d", i), func() {
				defer wg.Done()
				if _, err := readFile(c, names[0]); err != nil {
					t.Errorf("read: %v", err)
				}
			})
		}
		wg.Wait()
		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1 (single flight)", dev.Stats().Reads)
		}
		st := c.Stats()
		if st.Waits != 4 {
			t.Fatalf("waits = %d, want 4", st.Waits)
		}
	})
}

// TestSingleFlightSpans proves trace context survives the single-flight
// path: for ONE collapsed backend read, the leader emits a sharedcache-miss
// span against its trace and the follower emits a sharedcache-coalesce span
// (plus the hit it wakes to) against its own, so coalesced waits are no
// longer invisible to attribution.
func TestSingleFlightSpans(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 1, 1000, 10*time.Millisecond, 8)
		c, _ := New(env, backend, 1<<20)
		tracer := obs.NewTracer(env, obs.TracerOptions{Sampling: 1})
		c.SetTracer(tracer)

		leader := tracer.StartTrace()
		follower := tracer.StartTrace()
		if !leader.Sampled || !follower.Sampled || leader.Trace == follower.Trace {
			t.Fatalf("bad trace contexts: %+v %+v", leader, follower)
		}
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go("leader", func() {
			defer wg.Done()
			if _, err := c.Read(storage.Request{Name: names[0], Ctx: leader}); err != nil {
				t.Errorf("leader read: %v", err)
			}
		})
		env.Go("follower", func() {
			defer wg.Done()
			env.Sleep(time.Millisecond) // arrive mid-fetch
			if _, err := c.Read(storage.Request{Name: names[0], Ctx: follower}); err != nil {
				t.Errorf("follower read: %v", err)
			}
		})
		wg.Wait()

		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1 (single flight)", dev.Stats().Reads)
		}
		var miss, coalesce, hit []obs.Span
		for _, sp := range tracer.Spans() {
			switch sp.Stage {
			case obs.StageCacheMiss:
				miss = append(miss, sp)
			case obs.StageCacheCoalesce:
				coalesce = append(coalesce, sp)
			case obs.StageCacheHit:
				hit = append(hit, sp)
			}
		}
		if len(miss) != 1 || len(coalesce) != 1 || len(hit) != 1 {
			t.Fatalf("spans = %d miss / %d coalesce / %d hit, want 1/1/1",
				len(miss), len(coalesce), len(hit))
		}
		if miss[0].Trace != leader.Trace {
			t.Errorf("miss span trace = %d, want leader %d", miss[0].Trace, leader.Trace)
		}
		if coalesce[0].Trace != follower.Trace || hit[0].Trace != follower.Trace {
			t.Errorf("follower spans traces = %d/%d, want %d",
				coalesce[0].Trace, hit[0].Trace, follower.Trace)
		}
		// The follower joined 1ms into a 10ms fetch: its coalesced wait is
		// the remaining 9ms, both on the span and the always-on counter.
		if coalesce[0].Latency != 9*time.Millisecond {
			t.Errorf("coalesce latency = %v, want 9ms", coalesce[0].Latency)
		}
		if c.Stats().WaitTime != 9*time.Millisecond {
			t.Errorf("WaitTime = %v, want 9ms", c.Stats().WaitTime)
		}
	})
}

func TestLRUEviction(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _, names := fixture(env, 5, 1000, time.Millisecond, 2)
		c, _ := New(env, backend, 3000)
		for _, n := range names[:3] {
			_, _ = readFile(c, n)
		}
		_, _ = readFile(c, names[0]) // refresh 0
		_, _ = readFile(c, names[3]) // evicts 1
		if c.Resident(names[1]) {
			t.Fatal("LRU victim survived")
		}
		if !c.Resident(names[0]) || !c.Resident(names[2]) || !c.Resident(names[3]) {
			t.Fatal("wrong victim")
		}
		if st := c.Stats(); st.Evictions != 1 || st.UsedBytes != 3000 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestOversizedNeverCached(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _, names := fixture(env, 1, 10_000, time.Millisecond, 1)
		c, _ := New(env, backend, 500)
		if _, err := readFile(c, names[0]); err != nil {
			t.Fatal(err)
		}
		if c.Resident(names[0]) {
			t.Fatal("oversized file cached")
		}
	})
}

func TestErrorNotCached(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _, names := fixture(env, 2, 1000, time.Millisecond, 1)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailName(names[0])
		c, _ := New(env, faulty, 1<<20)
		if _, err := readFile(c, names[0]); err == nil {
			t.Fatal("injected fault swallowed")
		}
		if c.Resident(names[0]) {
			t.Fatal("failed read cached")
		}
		// Retry after un-arming succeeds (no negative caching).
		faulty2 := storage.NewFaultyBackend(env, backend)
		c2, _ := New(env, faulty2, 1<<20)
		if _, err := readFile(c2, names[0]); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInvalidate(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 1, 1000, time.Millisecond, 1)
		c, _ := New(env, backend, 1<<20)
		_, _ = readFile(c, names[0])
		c.Invalidate(names[0])
		if c.Resident(names[0]) {
			t.Fatal("still resident after Invalidate")
		}
		_, _ = readFile(c, names[0])
		if dev.Stats().Reads != 2 {
			t.Fatalf("device reads = %d, want 2", dev.Stats().Reads)
		}
		c.Invalidate("ghost") // no-op
	})
}

func TestSizePassthrough(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _, names := fixture(env, 1, 1234, time.Millisecond, 1)
		c, _ := New(env, backend, 1<<20)
		n, err := c.Size(names[0])
		if err != nil || n != 1234 {
			t.Fatalf("Size = %d, %v", n, err)
		}
	})
}

// TestPooledLifecycle proves the cache's ownership discipline over pooled
// payloads: admit retains a cache-held reference, every hit hands the
// caller one of its own, eviction/invalidation/Close release the cache's,
// and the debug pool's leak ledger ends empty.
func TestPooledLifecycle(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _, names := fixture(env, 3, 1000, time.Millisecond, 2)
		pool := mempool.New(mempool.Config{Debug: true})
		backend.SetBufferPool(pool)
		// Room for two entries: each 1000-byte sample pins (and is charged)
		// the pool's smallest class, 4 KiB.
		c, _ := New(env, backend, 2*4096)

		d0, err := readFile(c, names[0]) // miss: fetcher owns one ref, cache one
		if err != nil {
			t.Fatal(err)
		}
		if d0.Ref == nil {
			t.Fatal("pooled backend returned unpooled data through the cache")
		}
		if got := d0.Ref.Refs(); got != 2 {
			t.Fatalf("refs after miss = %d, want 2 (caller + cache)", got)
		}
		d0.Release()

		h0, _ := readFile(c, names[0]) // hit: caller gets its own ref
		if h0.Ref == nil || h0.Ref.Refs() != 2 {
			t.Fatalf("hit ref state = %+v, want cache + caller", h0.Ref)
		}
		// The hit's bytes must stay valid even while other traffic evicts
		// the entry out from under the cache.
		d1, _ := readFile(c, names[1])
		d2, _ := readFile(c, names[2]) // evicts names[0] (LRU)
		d1.Release()
		d2.Release()
		if c.Resident(names[0]) {
			t.Fatal("names[0] should have been evicted")
		}
		if got := h0.Ref.Refs(); got != 1 {
			t.Fatalf("refs after eviction = %d, want 1 (caller only)", got)
		}
		h0.Release()

		c.Invalidate(names[1])
		c.Close() // drops names[2]
		if leaks := pool.Leaks(); len(leaks) != 0 {
			t.Fatalf("pool leaks after Close:\n%s", mempool.FormatLeaks(leaks))
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("outstanding refs = %d, want 0", n)
		}

		// A read that lands after Close (a producer still in flight when the
		// instance shut down) is served but not admitted: the only lease is
		// the reader's.
		late, err := readFile(c, names[0])
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Residents != 0 || pool.Outstanding() != 1 {
			t.Fatalf("read after Close left %d residents, %d leases", st.Residents, pool.Outstanding())
		}
		late.Release()
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("outstanding refs after a late read = %d, want 0", n)
		}
	})
}

// TestTwoJobsSharedDataset is the §VII scenario: two PRISMA-backed jobs
// train over the same dataset through one shared cache; the second epoch
// of traffic is served almost entirely from memory, halving device load.
func TestTwoJobsSharedDataset(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var devReads int64
	var total int64
	s.Spawn("driver", func(*sim.Process) {
		backend, dev, names := fixture(env, 200, 100_000, time.Millisecond, 4)
		cache, _ := New(env, backend, 1<<30)

		// Two jobs, each with its own PRISMA stage over the shared cache.
		mkStage := func() *core.Stage {
			pf, err := core.NewPrefetcher(env, cache, core.PrefetcherConfig{
				InitialProducers: 2, MaxProducers: 8,
				InitialBufferCapacity: 16, MaxBufferCapacity: 64,
			})
			if err != nil {
				panic(err)
			}
			st := core.NewStage(env, cache, core.NewPrefetchObject(pf))
			pf.Start()
			return st
		}
		stA, stB := mkStage(), mkStage()

		wg := env.NewWaitGroup()
		wg.Add(2)
		runJob := func(st *core.Stage, seed int64) {
			defer wg.Done()
			plan := dataset.MustNew(samplesOf(names)).EpochFileList(seed, 0)
			if err := st.SubmitPlan(plan); err != nil {
				t.Error(err)
				return
			}
			for _, n := range plan {
				if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
					t.Error(err)
					return
				}
			}
		}
		env.Go("jobA", func() { runJob(stA, 1) })
		env.Go("jobB", func() { runJob(stB, 2) })
		wg.Wait()
		stA.Close()
		stB.Close()
		devReads = dev.Stats().Reads
		total = int64(2 * len(names))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 400 logical reads, but each file needs the device at most once.
	if devReads != total/2 {
		t.Fatalf("device reads = %d, want %d (each file fetched once)", devReads, total/2)
	}
}

func samplesOf(names []string) []dataset.Sample {
	out := make([]dataset.Sample, len(names))
	for i, n := range names {
		out[i] = dataset.Sample{Name: n, Size: 100_000}
	}
	return out
}

// TestRangeCachedAndSingleFlighted is the regression test for the
// range-read bypass: an identical repeated range must be a cache hit (one
// device read total), and concurrent misses on the same range must
// collapse onto one backend fetch exactly like whole-file reads do.
func TestRangeCachedAndSingleFlighted(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 1, 10_000, 10*time.Millisecond, 8)
		c, _ := New(env, backend, 1<<20)
		d, err := readRange(c, names[0], 100, 200)
		if err != nil || d.Size != 200 {
			t.Fatalf("ReadRange = %+v, %v", d, err)
		}
		start := env.Now()
		d, err = readRange(c, names[0], 100, 200)
		if err != nil || d.Size != 200 {
			t.Fatalf("repeated ReadRange = %+v, %v", d, err)
		}
		if env.Now() != start {
			t.Fatal("repeated range consumed device time (not served from cache)")
		}
		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1 (range must be cached)", dev.Stats().Reads)
		}
		st := c.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
		}
		// A different range of the same file is its own entry.
		if _, err := readRange(c, names[0], 300, 50); err != nil {
			t.Fatal(err)
		}
		if dev.Stats().Reads != 2 {
			t.Fatalf("device reads = %d, want 2 (distinct range, distinct entry)", dev.Stats().Reads)
		}

		// Concurrent identical ranges: one leader fetch, four coalesced
		// followers.
		preWaits := c.Stats().Waits
		wg := env.NewWaitGroup()
		wg.Add(5)
		for i := 0; i < 5; i++ {
			env.Go(fmt.Sprintf("ranger-%d", i), func() {
				defer wg.Done()
				if _, err := readRange(c, names[0], 5000, 1000); err != nil {
					t.Errorf("concurrent range: %v", err)
				}
			})
		}
		wg.Wait()
		if dev.Stats().Reads != 3 {
			t.Fatalf("device reads = %d, want 3 (concurrent ranges single-flighted)", dev.Stats().Reads)
		}
		if got := c.Stats().Waits - preWaits; got != 4 {
			t.Fatalf("waits = %d, want 4", got)
		}
	})
}

// TestRangeSlicedFromWholeFileResident proves a cached whole file serves
// any range of itself by slicing in place: no second device read, counted
// as a hit, and the payload window is byte-identical.
func TestRangeSlicedFromWholeFileResident(t *testing.T) {
	runSim(t, func(env conc.Env) {
		env2 := env
		mem := storage.NewMemBackend()
		content := mem.AddSeeded("s", 1000, 42)
		c, _ := New(env2, mem, 1<<20)
		if _, err := readFile(c, "s"); err != nil {
			t.Fatal(err)
		}
		d, err := readRange(c, "s", 100, 300)
		if err != nil || d.Size != 300 {
			t.Fatalf("ReadRange = %+v, %v", d, err)
		}
		if string(d.Bytes) != string(content[100:400]) {
			t.Fatal("sliced range payload mismatch")
		}
		d.Release()
		st := c.Stats()
		if st.DeviceReads != 1 {
			t.Fatalf("device reads = %d, want 1 (range sliced from the resident file)", st.DeviceReads)
		}
		if st.Hits != 1 {
			t.Fatalf("hits = %d, want 1", st.Hits)
		}
		// Clamped and past-EOF windows follow the read contract
		// without touching the backend.
		d, err = readRange(c, "s", 900, 500)
		if err != nil || d.Size != 100 {
			t.Fatalf("clamped slice = %+v, %v", d, err)
		}
		d.Release()
		d, err = readRange(c, "s", 5000, 10)
		if err != nil || d.Size != 0 {
			t.Fatalf("past-EOF slice = %+v, %v", d, err)
		}
		d.Release()
		if st := c.Stats(); st.DeviceReads != 1 {
			t.Fatalf("device reads = %d after clamped slices, want 1 still", st.DeviceReads)
		}
	})
}

// TestReadRangeBatchSharedCache covers the vectored path: a whole-file
// resident serves every range of a batch by slicing (no backend touch),
// and a cold batch forwards to the inner backend as one device
// read without polluting the cache with K partial entries.
func TestReadRangeBatchSharedCache(t *testing.T) {
	runSim(t, func(env conc.Env) {
		mem := storage.NewMemBackend()
		content := mem.AddSeeded("s", 1000, 7)
		c, _ := New(env, mem, 1<<20)
		ranges := []storage.Range{{Off: 0, N: 100}, {Off: 400, N: 100}, {Off: 950, N: 100}}

		// Cold: forwarded as one vector.
		out, err := readBatch(c, "s", ranges, nil)
		if err != nil || len(out) != 3 {
			t.Fatalf("cold batch = %d results, %v", len(out), err)
		}
		for _, d := range out {
			d.Release()
		}
		st := c.Stats()
		if st.DeviceReads != 1 {
			t.Fatalf("device reads = %d, want 1 (one vector)", st.DeviceReads)
		}
		if st.Residents != 0 {
			t.Fatalf("residents = %d, want 0 (batches must not churn the cache)", st.Residents)
		}

		// Warm the whole file, then the same batch slices from it.
		if _, err := readFile(c, "s"); err != nil {
			t.Fatal(err)
		}
		out, err = readBatch(c, "s", ranges, nil)
		if err != nil || len(out) != 3 {
			t.Fatalf("resident batch = %d results, %v", len(out), err)
		}
		wantSizes := []int64{100, 100, 50}
		for i, d := range out {
			if d.Size != wantSizes[i] {
				t.Fatalf("segment %d size = %d, want %d", i, d.Size, wantSizes[i])
			}
			if string(d.Bytes) != string(content[ranges[i].Off:ranges[i].Off+wantSizes[i]]) {
				t.Fatalf("segment %d payload mismatch", i)
			}
			d.Release()
		}
		st = c.Stats()
		if st.DeviceReads != 2 {
			t.Fatalf("device reads = %d, want 2 (resident batch is free)", st.DeviceReads)
		}
		if got := st.Hits; got != 3 {
			t.Fatalf("hits = %d, want 3 (one per sliced range)", got)
		}
	})
}
