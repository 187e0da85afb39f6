package tiering

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
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
	b, _, names := deviceFixture(env, cfg, n, size)
	return b, names
}

// deviceFixture is tieredFixture that also returns the slow tier's device,
// whose read count is the number of reads that reached it.
func deviceFixture(env conc.Env, cfg Config, n int, size int64) (*Backend, *storage.Device, []string) {
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
	b, err := NewBackend(env, cfg, storage.NewModeledBackend(man, slowDev), fastDev)
	if err != nil {
		panic(err)
	}
	return b, slowDev, names
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

// readTimes reads name n times through b.
func readTimes(t *testing.T, b *Backend, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := readFile(b, name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// Fast tier fits 3 files of 1000 bytes.
		b, names := tieredFixture(env, Config{FastCapacity: 3000, PromoteAfter: 1}, 5, 1000)
		for _, n := range names[:3] {
			readTimes(t, b, n, 1)
		}
		readTimes(t, b, names[0], 1) // refresh 0 (two reads); 1 is now LRU with one

		// The tie case: offered with zero and then one earlier read, 3 is not
		// strictly hotter than the LRU victim's one read. Declined, nothing
		// evicted, nothing prepared.
		readTimes(t, b, names[3], 2)
		st := b.Stats()
		if b.Resident(names[3]) || st.Evictions != 0 || st.Promotions != 3 || st.Declined != 2 {
			t.Fatalf("tie must decline without evicting: %+v", st)
		}
		for _, n := range names[:3] {
			if !b.Resident(n) {
				t.Fatalf("%s lost to an equally hot candidate", n)
			}
		}

		// Strictly hotter (two earlier reads against one): 3 is admitted
		// over the LRU resident, and only that one.
		readTimes(t, b, names[3], 1)
		if b.Resident(names[1]) {
			t.Fatal("LRU file survived a strictly hotter candidate")
		}
		if !b.Resident(names[0]) || !b.Resident(names[2]) || !b.Resident(names[3]) {
			t.Fatal("wrong eviction victim")
		}
		st = b.Stats()
		if st.Evictions != 1 || st.Promotions != 4 || st.Declined != 2 {
			t.Fatalf("stats = %+v, want 1 eviction, 4 promotions, 2 declined", st)
		}
		if st.FastUsed != 3000 {
			t.Fatalf("FastUsed = %d, want 3000", st.FastUsed)
		}

		// LRU order among equals, and a count that survives eviction: 2 is
		// now the tail (one read). The evicted 1 kept its one read, so its
		// next read ties with 2 and the one after beats it — had eviction
		// forgotten the count it would need a third.
		readTimes(t, b, names[1], 1)
		if b.Resident(names[1]) || !b.Resident(names[2]) {
			t.Fatalf("re-read of the evicted name should tie with the tail: %+v", b.Stats())
		}
		readTimes(t, b, names[1], 1)
		if !b.Resident(names[1]) || b.Resident(names[2]) {
			t.Fatalf("evicted name lost its count, or the victim was not the LRU tail: %+v", b.Stats())
		}
		if !b.Resident(names[0]) || !b.Resident(names[3]) {
			t.Fatal("a resident ahead of the LRU tail was evicted")
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

// tickEnv makes every clock reading advance by one tick, so a span of
// work bracketed by two Now calls measures exactly one tick whatever the
// scheduler did — PromoteTime then counts the readers that charged it.
type tickEnv struct {
	conc.Env
	ticks atomic.Int64
}

func (e *tickEnv) Now() time.Duration { return time.Duration(e.ticks.Add(1)) * time.Millisecond }

func TestConcurrentMissesChargeOneWinner(t *testing.T) {
	// Eight readers miss on the same name at once: one slow-tier read, which
	// the other seven join and are handed. Only that read may enter the tier
	// — the joined readers must neither prepare a second copy, nor inflate
	// the promotion counter, nor charge the fast device or the promote time.
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
		if st.SlowReads != 1 || st.Waits != 7 || st.FastHits != 0 {
			t.Fatalf("8 concurrent misses accounted as %d slow + %d joined + %d fast, want 1 + 7 + 0", st.SlowReads, st.Waits, st.FastHits)
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
		// One past capacity, as hot as the residents: declined.
		_, _ = readFile(b, names[3])
		_, _ = readFile(b, names[3])
		st = b.Stats()
		if st.Evictions != 0 || st.Declined != 2 || b.Resident(names[3]) {
			t.Fatalf("equally hot candidate past capacity: %+v, want two declines and no eviction", st)
		}
		// Strictly hotter: exactly one eviction, occupancy stays exact.
		_, _ = readFile(b, names[3])
		st = b.Stats()
		if st.Evictions != 1 || st.FastUsed != 3000 || st.Residents != 3 || !b.Resident(names[3]) {
			t.Fatalf("one past capacity: %+v, want exactly one eviction at full occupancy", st)
		}
	})
}

func TestItemExactlyTierSizedEvictsAll(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// A sample exactly the tier's size is admissible but displaces
		// every resident, so it must be strictly hotter than every one of
		// them; one byte larger (TestOversizeNeverPromoted) is not
		// admissible at all. 2 small files then the big one.
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
			storage.NewModeledBackend(man, slowDev), nil)
		if err != nil {
			t.Fatal(err)
		}
		readTimes(t, b, "small-0", 1)
		readTimes(t, b, "small-1", 1)
		readTimes(t, b, "small-0", 1) // two reads; small-1 (one read) is the tail
		// Two earlier reads beat the tail but only tie with small-0 behind
		// it: declined as a whole — the colder victim is not evicted for an
		// admission that cannot complete.
		readTimes(t, b, "big", 3)
		st := b.Stats()
		if b.Resident("big") || !b.Resident("small-0") || !b.Resident("small-1") || st.Evictions != 0 {
			t.Fatalf("candidate not hotter than every victim must evict none: %+v", st)
		}
		if st.Declined != 3 || st.FastUsed != 2000 {
			t.Fatalf("stats = %+v, want 3 declines and both small files in place", st)
		}
		// Three earlier reads beat both.
		readTimes(t, b, "big", 1)
		st = b.Stats()
		if !b.Resident("big") || b.Resident("small-0") || b.Resident("small-1") {
			t.Fatalf("tier-sized item hotter than every resident should displace them all: %+v", st)
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
		b.PrefetchPlan(plan(names, 1000))
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
		b.PrefetchPlan(plan(names, 1000))
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

// slowCalls counts the calls that reach the slow tier.
type slowCalls struct {
	storage.Backend
	n atomic.Int64
}

func (c *slowCalls) Read(req storage.Request) (storage.Response, error) {
	c.n.Add(1)
	return c.Backend.Read(req)
}

func TestWarmerStopsWalkingAFullTier(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// Tier fits three files, two are there by demand (two slow calls).
		// The plan's first two entries are resident, the third is warmed
		// into the last free slot (one slow call), and with no free byte
		// left the walk ends: the other three are skipped with no slow call.
		fix, names := tieredFixture(env, Config{FastCapacity: 3000, PromoteAfter: 1}, 6, 1000)
		calls := &slowCalls{Backend: fix.slow}
		b, err := NewBackend(env, fix.cfg, calls, fix.fastDevice)
		if err != nil {
			t.Fatal(err)
		}
		readTimes(t, b, names[0], 1)
		readTimes(t, b, names[1], 1)
		b.PrefetchPlan(plan(names, 1000))
		env.Sleep(time.Second)
		st := b.Stats()
		if st.PrefetchPromotions != 1 || !b.Resident(names[2]) {
			t.Fatalf("warmer should fill the one free slot: %+v", st)
		}
		if st.PrefetchSkips != 5 {
			t.Fatalf("skips = %d, want 5 (2 resident + 3 past the end of free space)", st.PrefetchSkips)
		}
		if n := calls.n.Load(); n != 3 {
			t.Fatalf("%d slow-tier calls, want 3 (2 demand + 1 warm): a full tier must end the walk", n)
		}
		// Next epoch's plan against the now-full tier: no slow-tier call.
		b.PrefetchPlan(plan(names, 1000))
		env.Sleep(time.Second)
		if n := calls.n.Load(); n != 3 {
			t.Fatalf("%d slow-tier calls after a plan against a full tier, want still 3", n)
		}
		if st := b.Stats(); st.PrefetchSkips != 11 || st.Evictions != 0 {
			t.Fatalf("stats = %+v, want 11 skips and no eviction", st)
		}
		b.Close()
	})
}

// TestWarmerSizesFromThePlan: the warmer judges fit by the size the plan
// entry carries, so an entry larger than the free space is skipped with no
// slow-tier call while a later one that fits is still warmed.
func TestWarmerSizesFromThePlan(t *testing.T) {
	runSim(t, func(env conc.Env) {
		fix, names := tieredFixture(env, Config{FastCapacity: 3000, PromoteAfter: 1}, 2, 1000)
		calls := &slowCalls{Backend: fix.slow}
		b, err := NewBackend(env, fix.cfg, calls, fix.fastDevice)
		if err != nil {
			t.Fatal(err)
		}
		b.PrefetchPlan([]dataset.Sample{{Name: names[0], Size: 4000}, {Name: names[1], Size: 1000}})
		env.Sleep(time.Second)
		st := b.Stats()
		if st.PrefetchPromotions != 1 || st.PrefetchSkips != 1 || b.Resident(names[0]) || !b.Resident(names[1]) {
			t.Fatalf("stats = %+v: want the oversize entry skipped and the other warmed", st)
		}
		if n := calls.n.Load(); n != 1 {
			t.Fatalf("%d slow-tier calls, want 1: the oversize entry must not reach the slow tier", n)
		}
		b.Close()
	})
}

func TestWarmerYieldsToRacingDemandMiss(t *testing.T) {
	runSim(t, func(env conc.Env) {
		// The warmer's slow read of the plan's only entry and a demand miss
		// on the same name are in flight together; whichever returns second
		// finds the name resident and must not enter a second copy. Either
		// way there is one resident, charged once.
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 1, 1000)
		b.PrefetchPlan(plan(names, 1000))
		readTimes(t, b, names[0], 1)
		env.Sleep(time.Second)
		st := b.Stats()
		if st.Residents != 1 || st.FastUsed != 1000 {
			t.Fatalf("stats = %+v, want one 1000-byte resident", st)
		}
		if st.Promotions+st.PrefetchPromotions != 1 || st.PrefetchSkips != st.Promotions {
			t.Fatalf("stats = %+v, want exactly one admission, and a warmer that lost counted as a skip", st)
		}
		b.Close()
	})
}

func TestNewerPlanSupersedesOlder(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 8, 1000)
		b.PrefetchPlan(plan(names[:4], 1000))
		b.PrefetchPlan(plan(names[4:], 1000)) // latest plan wins
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
		b.PrefetchPlan(plan(names, 1000))
		b.Close()
		b.Close() // idempotent (Prisma.Close and Object.Close may both run)
		st := b.Stats()
		if st.Residents != 0 || st.FastUsed != 0 || st.FastLogical != 0 {
			t.Fatalf("residents survived Close: %+v", st)
		}
		// A plan after Close must not revive the worker.
		b.PrefetchPlan(plan(names, 1000))
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
