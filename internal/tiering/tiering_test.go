package tiering

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
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

// tieredFixture builds a slow NFS-like backend plus a fast NVMe-like
// device with n files of the given size.
func tieredFixture(env conc.Env, cfg Config, n int, size int64) (*Backend, []string) {
	samples := make([]dataset.Sample, n)
	names := make([]string, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d", i), Size: size}
		names[i] = samples[i].Name
	}
	man := dataset.MustNew(samples)
	slowDev, err := storage.NewDevice(env, storage.DeviceSpec{
		BaseLatency: 10 * time.Millisecond, BytesPerSecond: 1e9, Channels: 4,
	})
	if err != nil {
		panic(err)
	}
	fastDev, err := storage.NewDevice(env, storage.DeviceSpec{
		BaseLatency: 100 * time.Microsecond, BytesPerSecond: 1e10, Channels: 8,
	})
	if err != nil {
		panic(err)
	}
	slow := storage.NewModeledBackend(man, slowDev, nil)
	b, err := NewBackend(env, cfg, slow, fastDev)
	if err != nil {
		panic(err)
	}
	return b, names
}

func TestConfigValidate(t *testing.T) {
	if (Config{FastCapacity: 0, PromoteAfter: 1}).Validate() == nil {
		t.Error("zero capacity accepted")
	}
	if (Config{FastCapacity: 1, PromoteAfter: 0}).Validate() == nil {
		t.Error("zero promote-after accepted")
	}
	if err := (Config{FastCapacity: 1 << 20, PromoteAfter: 1}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestPromoteOnFirstAccess(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 4, 1000)
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		if !b.Resident(names[0]) {
			t.Fatal("file not promoted after first access")
		}
		st := b.Stats()
		if st.SlowReads != 1 || st.Promotions != 1 || st.FastHits != 0 {
			t.Fatalf("stats = %+v", st)
		}
		// Second read hits the fast tier.
		start := env.Now()
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		if env.Now()-start > time.Millisecond {
			t.Fatalf("fast-tier hit took %v, want ≈100µs", env.Now()-start)
		}
		if b.Stats().FastHits != 1 {
			t.Fatal("fast hit not counted")
		}
	})
}

func TestPromoteAfterThreshold(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 3}, 2, 1000)
		for i := 0; i < 2; i++ {
			_, _ = readFile(b, names[0])
			if b.Resident(names[0]) {
				t.Fatalf("promoted after %d accesses, want 3", i+1)
			}
		}
		_, _ = readFile(b, names[0])
		if !b.Resident(names[0]) {
			t.Fatal("not promoted after 3 accesses")
		}
	})
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// Fast tier fits 3 files of 1000 bytes.
		b, names := tieredFixture(env, Config{FastCapacity: 3000, PromoteAfter: 1}, 5, 1000)
		for _, n := range names[:3] {
			_, _ = readFile(b, n)
		}
		_, _ = readFile(b, names[0]) // refresh 0; 1 is now LRU
		_, _ = readFile(b, names[3]) // promotes 3, evicts 1
		if b.Resident(names[1]) {
			t.Fatal("LRU file survived eviction")
		}
		if !b.Resident(names[0]) || !b.Resident(names[2]) || !b.Resident(names[3]) {
			t.Fatal("wrong eviction victim")
		}
		if b.Stats().Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", b.Stats().Evictions)
		}
		if b.Stats().FastUsed != 3000 {
			t.Fatalf("FastUsed = %d, want 3000", b.Stats().FastUsed)
		}
	})
}

func TestOversizeNeverPromoted(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 500, PromoteAfter: 1}, 2, 1000)
		_, _ = readFile(b, names[0])
		if b.Resident(names[0]) {
			t.Fatal("file larger than the fast tier promoted")
		}
	})
}

func TestSlowErrorPropagates(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, _ := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 2, 1000)
		if _, err := readFile(b, "ghost"); err == nil {
			t.Fatal("missing file read succeeded")
		}
	})
}

func TestSizeFromSlowTier(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 2, 1234)
		n, err := b.Size(names[0])
		if err != nil || n != 1234 {
			t.Fatalf("Size = %d, %v", n, err)
		}
	})
}

func TestTieringSpeedsUpRepeatedEpochs(t *testing.T) {
	// The headline behaviour: epoch 1 pays the slow tier; epoch 2 runs at
	// fast-tier speed once the working set is promoted.
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 30, PromoteAfter: 1}, 50, 100_000)
		epoch := func() time.Duration {
			start := env.Now()
			for _, n := range names {
				if _, err := readFile(b, n); err != nil {
					t.Fatal(err)
				}
			}
			return env.Now() - start
		}
		first := epoch()
		second := epoch()
		if second*5 > first {
			t.Fatalf("second epoch %v not ≪ first %v", second, first)
		}
	})
}

func TestPrefetcherOverTieredBackend(t *testing.T) {
	// Composition: PRISMA's producers read through the tiered backend.
	// Epoch 1 pulls from the slow tier and promotes; epoch 2's prefetch
	// runs at fast-tier speed — the two optimization objects stack.
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 30, PromoteAfter: 1}, 60, 100_000)
		pf, err := core.NewPrefetcher(env, b, core.PrefetcherConfig{
			InitialProducers: 2, MaxProducers: 8,
			InitialBufferCapacity: 16, MaxBufferCapacity: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := core.NewStage(env, b, core.NewPrefetchObject(pf))
		pf.Start()
		defer st.Close()

		epoch := func() time.Duration {
			start := env.Now()
			if err := st.SubmitPlan(names); err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
					t.Fatal(err)
				}
			}
			return env.Now() - start
		}
		first := epoch()
		second := epoch()
		if second*3 > first {
			t.Fatalf("epoch 2 (%v) not ≪ epoch 1 (%v) despite promotion", second, first)
		}
		stats := b.Stats()
		if stats.Promotions != 60 {
			t.Fatalf("promotions = %d, want 60", stats.Promotions)
		}
		if stats.FastHits != 60 {
			t.Fatalf("fast hits = %d, want 60 (all of epoch 2)", stats.FastHits)
		}
	})
}

// tickEnv makes every clock reading advance by one tick, so a span of
// work bracketed by two Now calls measures exactly one tick whatever the
// scheduler did — PromoteTime then counts the readers that charged it.
type tickEnv struct {
	conc.Env
	ticks atomic.Int64
}

func (e *tickEnv) Now() time.Duration { return time.Duration(e.ticks.Add(1)) * time.Millisecond }

func TestConcurrentMissesChargeOneWinner(t *testing.T) {
	// Eight readers miss on the same name at once; all eight slow-tier
	// reads are in flight together. Only one may enter the tier — the
	// others find the name resident when their read returns and must
	// neither prepare a second copy, nor inflate the promotion counter,
	// nor charge the fast device or the promote time.
	runSim(t, func(env conc.Env) {
		fix, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 1, 1000)
		b, err := NewBackend(&tickEnv{Env: env}, fix.cfg, fix.slow, fix.fastDevice)
		if err != nil {
			t.Fatal(err)
		}
		wg := env.NewWaitGroup()
		wg.Add(8)
		for w := 0; w < 8; w++ {
			env.Go(fmt.Sprintf("reader-%d", w), func() {
				defer wg.Done()
				if _, err := readFile(b, names[0]); err != nil {
					t.Errorf("read: %v", err)
				}
			})
		}
		wg.Wait()
		st := b.Stats()
		if st.Promotions != 1 {
			t.Fatalf("promotions = %d, want 1 (one winner per name)", st.Promotions)
		}
		if st.Residents != 1 || st.FastUsed != 1000 {
			t.Fatalf("stats = %+v, want one 1000-byte resident", st)
		}
		if st.SlowReads != 8 || st.FastHits != 0 {
			t.Fatalf("8 concurrent misses accounted as %d slow + %d fast", st.SlowReads, st.FastHits)
		}
		if st.PromoteTime != time.Millisecond {
			t.Fatalf("promote time = %v, want one tick (1ms): only the winner charges it", st.PromoteTime)
		}
		if st.TrackedNames != 0 {
			t.Fatalf("%d names tracked: late readers re-counted a resident name", st.TrackedNames)
		}
	})
}

func TestEvictionAtExactCapacity(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// Capacity is exactly three files: filling it must not evict,
		// the fourth promotion must evict exactly one.
		b, names := tieredFixture(env, Config{FastCapacity: 3000, PromoteAfter: 1}, 4, 1000)
		for _, n := range names[:3] {
			_, _ = readFile(b, n)
		}
		st := b.Stats()
		if st.Evictions != 0 || st.FastUsed != 3000 {
			t.Fatalf("filling to exact capacity: %+v, want 0 evictions and full tier", st)
		}
		_, _ = readFile(b, names[3])
		st = b.Stats()
		if st.Evictions != 1 || st.FastUsed != 3000 || st.Residents != 3 {
			t.Fatalf("one past capacity: %+v, want exactly one eviction at full occupancy", st)
		}
	})
}

func TestItemExactlyTierSizedEvictsAll(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// A sample exactly the tier's size is admissible but displaces
		// every resident; one byte larger (TestOversizeNeverPromoted) is
		// not. 3 small files then the big one.
		samples := []dataset.Sample{
			{Name: "small-0", Size: 1000},
			{Name: "small-1", Size: 1000},
			{Name: "big", Size: 3000},
		}
		man := dataset.MustNew(samples)
		slowDev, err := storage.NewDevice(env, storage.DeviceSpec{
			BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBackend(env, Config{FastCapacity: 3000, PromoteAfter: 1},
			storage.NewModeledBackend(man, slowDev, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = readFile(b, "small-0")
		_, _ = readFile(b, "small-1")
		_, _ = readFile(b, "big")
		st := b.Stats()
		if !b.Resident("big") || b.Resident("small-0") || b.Resident("small-1") {
			t.Fatalf("tier-sized item should displace all residents: %+v", st)
		}
		if st.Evictions != 2 || st.FastUsed != 3000 {
			t.Fatalf("stats = %+v, want 2 evictions and a full tier", st)
		}
	})
}

func TestAccessMapBounded(t *testing.T) {
	// Regression for the unbounded accesses map: names that never promote
	// (oversize here) used to accumulate one counter each, forever. The
	// MaxTracked decay sweep must keep the map bounded.
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 500, PromoteAfter: 1, MaxTracked: 8}, 100, 1000)
		for _, n := range names {
			if _, err := readFile(b, n); err != nil {
				t.Fatal(err)
			}
		}
		st := b.Stats()
		if st.TrackedNames > 8 {
			t.Fatalf("access map holds %d names, want <= MaxTracked 8", st.TrackedNames)
		}
		if st.AccessDecays == 0 {
			t.Fatal("100 never-promoted names under MaxTracked=8 must trigger decay sweeps")
		}
		if st.Residents != 0 {
			t.Fatalf("oversize files promoted: %+v", st)
		}
	})
}

func TestDecayKeepsPopularity(t *testing.T) {
	// A decay sweep halves counts instead of zeroing them: a name close to
	// the threshold keeps its standing while one-shot names vanish.
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 4, MaxTracked: 4}, 30, 1000)
		// Six accesses of the hot name interleaved with cold singles; the
		// cold names overflow MaxTracked and force sweeps, each halving the
		// hot count — but repeated access still reaches the threshold.
		hot := names[0]
		for i := 1; i < 25; i++ {
			_, _ = readFile(b, names[i])
			_, _ = readFile(b, hot)
			if b.Resident(hot) {
				break
			}
		}
		if !b.Resident(hot) {
			t.Fatalf("hot name never promoted despite repeated access (stats %+v)", b.Stats())
		}
		if b.Stats().AccessDecays == 0 {
			t.Fatal("expected decay sweeps during the cold flood")
		}
	})
}

func TestPrefetchPlanWarmsFreeSpace(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 4, 1000)
		b.PrefetchPlan(names)
		env.Sleep(time.Second) // virtual time for the warmer to drain
		st := b.Stats()
		if st.PrefetchPromotions != 4 {
			t.Fatalf("warmed %d of 4 planned samples: %+v", st.PrefetchPromotions, st)
		}
		if st.Promotions != 0 || st.SlowReads != 0 {
			t.Fatalf("warming must not count as demand traffic: %+v", st)
		}
		for _, n := range names {
			if !b.Resident(n) {
				t.Fatalf("%s not resident after warming", n)
			}
		}
		// Warmed samples serve as fast hits.
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		if b.Stats().FastHits != 1 {
			t.Fatal("warmed sample did not hit the fast tier")
		}
		b.Close()
	})
}

func TestPrefetchNeverEvicts(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// Tier fits two files; two are promoted by demand. Warming the
		// other two must skip (no free space), not evict the working set.
		b, names := tieredFixture(env, Config{FastCapacity: 2000, PromoteAfter: 1}, 4, 1000)
		_, _ = readFile(b, names[0])
		_, _ = readFile(b, names[1])
		b.PrefetchPlan(names)
		env.Sleep(time.Second)
		st := b.Stats()
		if st.PrefetchPromotions != 0 {
			t.Fatalf("warming promoted %d into a full tier", st.PrefetchPromotions)
		}
		if st.Evictions != 0 {
			t.Fatalf("warming evicted %d demand residents", st.Evictions)
		}
		if st.PrefetchSkips != 4 {
			t.Fatalf("skips = %d, want 4 (2 resident + 2 no-space)", st.PrefetchSkips)
		}
		if !b.Resident(names[0]) || !b.Resident(names[1]) {
			t.Fatal("working set lost during warming")
		}
		b.Close()
	})
}

func TestNewerPlanSupersedesOlder(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 8, 1000)
		b.PrefetchPlan(names[:4])
		b.PrefetchPlan(names[4:]) // latest plan wins
		env.Sleep(time.Second)
		for _, n := range names[4:] {
			if !b.Resident(n) {
				t.Fatalf("%s from the newest plan not warmed", n)
			}
		}
		b.Close()
	})
}

func TestCloseStopsWarmerAndReleasesResidents(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 4, 1000)
		_, _ = readFile(b, names[0])
		b.PrefetchPlan(names)
		b.Close()
		b.Close() // idempotent (Prisma.Close and Object.Close may both run)
		st := b.Stats()
		if st.Residents != 0 || st.FastUsed != 0 || st.FastLogical != 0 {
			t.Fatalf("residents survived Close: %+v", st)
		}
		// A plan after Close must not revive the worker.
		b.PrefetchPlan(names)
		env.Sleep(time.Second)
		if b.Stats().PrefetchPromotions != 0 {
			t.Fatal("worker ran after Close")
		}
	})
}

func TestTieringUnderConcurrentReaders(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 40, 1000)
		wg := env.NewWaitGroup()
		wg.Add(4)
		for w := 0; w < 4; w++ {
			w := w
			env.Go(fmt.Sprintf("reader-%d", w), func() {
				defer wg.Done()
				for i := w; i < len(names); i += 4 {
					if _, err := readFile(b, names[i]); err != nil {
						t.Errorf("read %s: %v", names[i], err)
					}
				}
			})
		}
		wg.Wait()
		st := b.Stats()
		if st.SlowReads != 40 || st.Promotions != 40 {
			t.Fatalf("stats = %+v, want 40 slow reads and promotions", st)
		}
	})
}

// memFixture builds a tiering backend over an in-memory slow tier with
// real payloads, so range tests can assert byte identity end to end.
func memFixture(t *testing.T, env conc.Env, cfg Config, n, size int) (*Backend, []string, [][]byte) {
	t.Helper()
	mem := storage.NewMemBackend()
	names := make([]string, n)
	contents := make([][]byte, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%03d", i)
		contents[i] = mem.AddSeeded(names[i], size, int64(i)+1)
	}
	b, err := NewBackend(env, cfg, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b, names, contents
}

// TestReadRangeServedFromResident is the regression test for the range-read
// bypass: a range of a fast-tier resident must be served from the resident
// payload and counted as a fast hit, not silently routed to the slow tier.
func TestReadRangeServedFromResident(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names, contents := memFixture(t, env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 2, 1000)
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		if !b.Resident(names[0]) {
			t.Fatal("not promoted")
		}
		d, err := readRange(b, names[0], 100, 200)
		if err != nil || d.Size != 200 {
			t.Fatalf("ReadRange = %+v, %v", d, err)
		}
		if !bytes.Equal(d.Bytes, contents[0][100:300]) {
			t.Fatal("resident range payload mismatch")
		}
		d.Release()
		st := b.Stats()
		if st.FastHits != 1 {
			t.Fatalf("FastHits = %d, want 1 (range must hit the resident)", st.FastHits)
		}
		if st.SlowReads != 1 {
			t.Fatalf("SlowReads = %d, want 1 (only the promoting read)", st.SlowReads)
		}
		// Clamped at EOF, still a resident hit.
		d, err = readRange(b, names[0], 900, 500)
		if err != nil || d.Size != 100 || !bytes.Equal(d.Bytes, contents[0][900:]) {
			t.Fatalf("clamped resident range = %+v, %v", d, err)
		}
		d.Release()
		if st := b.Stats(); st.FastHits != 2 || st.SlowReads != 1 {
			t.Fatalf("stats after clamped hit = %+v", st)
		}
	})
}

// TestReadRangeMissRecordsAccess is the companion regression: a range of a
// non-resident sample goes to the slow tier AND lands in the promotion
// counters, so range-heavy workloads are no longer invisible to tier
// accounting. Ranges alone must never promote (they carry partial payload).
func TestReadRangeMissRecordsAccess(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names, contents := memFixture(t, env, Config{FastCapacity: 1 << 20, PromoteAfter: 2}, 2, 1000)
		for i := 0; i < 3; i++ {
			d, err := readRange(b, names[0], 10, 50)
			if err != nil || !bytes.Equal(d.Bytes, contents[0][10:60]) {
				t.Fatalf("slow range %d = %+v, %v", i, d, err)
			}
			d.Release()
		}
		st := b.Stats()
		if st.SlowReads != 3 {
			t.Fatalf("SlowReads = %d, want 3", st.SlowReads)
		}
		if st.TrackedNames != 1 {
			t.Fatalf("TrackedNames = %d, want 1 (range accesses must be recorded)", st.TrackedNames)
		}
		if b.Resident(names[0]) {
			t.Fatal("a partial range must not promote")
		}
		// A compressed resident also declines the resident slice path (it
		// would need a whole-record decode) and serves from the slow tier.
		cb, cnames, ccontents := memFixture(t, env, Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, 1, 4096)
		if _, err := readFile(cb, cnames[0]); err != nil {
			t.Fatal(err)
		}
		d, err := readRange(cb, cnames[0], 0, 64)
		if err != nil || !bytes.Equal(d.Bytes, ccontents[0][:64]) {
			t.Fatalf("compressed-resident range = %+v, %v", d, err)
		}
		d.Release()
	})
}

// TestReadRangeBatchTiering covers the vectored path: a batch against a
// resident slices every range from the resident payload (one fast hit per
// range), and a batch against a cold name is one slow access recorded once.
func TestReadRangeBatchTiering(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names, contents := memFixture(t, env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 2, 1000)
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		ranges := []storage.Range{{Off: 0, N: 100}, {Off: 500, N: 200}, {Off: 900, N: 500}}
		out, err := readBatch(b, names[0], ranges, nil)
		if err != nil || len(out) != 3 {
			t.Fatalf("resident batch = %d results, %v", len(out), err)
		}
		wantSizes := []int64{100, 200, 100}
		for i, d := range out {
			if d.Size != wantSizes[i] || !bytes.Equal(d.Bytes, contents[0][ranges[i].Off:ranges[i].Off+wantSizes[i]]) {
				t.Fatalf("resident batch segment %d = %+v", i, d)
			}
			d.Release()
		}
		st := b.Stats()
		if st.FastHits != 3 || st.SlowReads != 1 {
			t.Fatalf("stats after resident batch = %+v", st)
		}

		// Cold name: slow path, one access recorded for the whole vector.
		out, err = readBatch(b, names[1], ranges[:2], nil)
		if err != nil || len(out) != 2 {
			t.Fatalf("cold batch = %d results, %v", len(out), err)
		}
		for _, d := range out {
			d.Release()
		}
		st = b.Stats()
		if st.SlowReads != 2 {
			t.Fatalf("SlowReads = %d, want 2 (one per vector, not per range)", st.SlowReads)
		}
		if st.TrackedNames != 1 {
			t.Fatalf("TrackedNames = %d, want 1 (the cold batch's name)", st.TrackedNames)
		}
	})
}
