package tiering

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestScanResistance pins what the admission rule is for: seeded
// permutation epochs (every name exactly once per epoch, the DL access
// pattern) over a tier that holds a quarter of the set. The tier fills
// during epoch 1 and then never swaps a resident again, so every later
// epoch hits exactly its capacity fraction; promote-on-every-miss LRU hit
// a few percent here and evicted once per miss.
func TestScanResistance(t *testing.T) {
	const (
		files    = 200
		fit      = files / 4
		epochs   = 5
		fraction = float64(fit) / files
	)
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: fit * 1000, PromoteAfter: 1}, files, 1000)
		rng := rand.New(rand.NewSource(22))
		var filled Stats
		for e := 0; e < epochs; e++ {
			before := b.Stats()
			for _, i := range rng.Perm(files) {
				readTimes(t, b, names[i], 1)
			}
			st := b.Stats()
			if st.TrackedNames != files-fit {
				t.Fatalf("epoch %d tracks %d non-residents, want %d", e+1, st.TrackedNames, files-fit)
			}
			if e == 0 {
				filled = st
				if st.Promotions != fit || st.Evictions != 0 || st.Declined != files-fit {
					t.Fatalf("epoch 1 should fill the tier once and decline the rest once each: %+v", st)
				}
				continue
			}
			hits := float64(st.FastHits-before.FastHits) / files
			if hits < 0.9*fraction {
				t.Errorf("epoch %d hit ratio %.3f, want >= %.3f (0.9 x the capacity fraction)", e+1, hits, 0.9*fraction)
			}
			if st.Promotions != filled.Promotions || st.Evictions != 0 {
				t.Fatalf("epoch %d swapped residents under a uniform scan: %+v", e+1, st)
			}
			if got, want := st.Declined-before.Declined, int64(files-fit); got != want {
				t.Errorf("epoch %d declined %d misses, want %d (every miss, so a stable tier is told from a broken one)", e+1, got, want)
			}
		}
	})
}

// TestPopularityShift pins the ageing rule: the decay sweep halves
// residents' counts along with everyone else's, so when the hot set moves
// the residents that stopped being read lose their standing and the new hot
// names take the tier within two epochs. With residents exempt from the
// sweep the old hot set's counts (dozens of reads each) would outlast any
// count a name can accumulate between sweeps, and the tier would serve
// nothing for good.
func TestPopularityShift(t *testing.T) {
	const (
		hot     = 8
		cold    = 24
		rereads = 6
	)
	runSim(t, func(env conc.Env) {
		b, names := tieredFixture(env, Config{FastCapacity: hot * 1000, PromoteAfter: 1, MaxTracked: 2 * hot}, 2*hot+cold, 1000)
		setA, setB, flood := names[:hot], names[hot:2*hot], names[2*hot:]
		// One epoch: every cold name once, the hot set re-read in between.
		epoch := func(hotSet []string) {
			for i, c := range flood {
				readTimes(t, b, c, 1)
				for r := 0; r < rereads; r++ {
					readTimes(t, b, hotSet[(i*rereads+r)%hot], 1)
				}
			}
		}
		for e := 0; e < 4; e++ {
			epoch(setA)
		}
		for _, n := range setA {
			if !b.Resident(n) {
				t.Fatalf("hot name %s not resident after four epochs: %+v", n, b.Stats())
			}
		}
		if b.Stats().AccessDecays == 0 {
			t.Fatal("fixture must force decay sweeps (24 cold names per epoch under MaxTracked 16)")
		}

		epoch(setB)
		epoch(setB)
		for _, n := range setB {
			if !b.Resident(n) {
				t.Fatalf("new hot name %s not resident two epochs after the shift: residents' counts are not being aged (%+v)", n, b.Stats())
			}
		}
		before := b.Stats()
		epoch(setB)
		st := b.Stats()
		if hits, want := st.FastHits-before.FastHits, int64(cold*rereads); hits != want {
			t.Fatalf("third epoch after the shift: %d hits, want all %d hot reads", hits, want)
		}
	})
}

// fullCompressedTier builds a live compressing tier over a pooled in-memory
// slow tier of compressible files, reads each once — the first few fill the
// tier, the rest tie with them and are declined — and then reads every
// resident heat more times, so the non-residents stay strictly colder
// however often a test re-reads them (up to heat times).
func fullCompressedTier(t testing.TB, capacity int64, files, fileSize, heat int) (*Backend, *mempool.Pool, []string) {
	t.Helper()
	mem := storage.NewMemBackend()
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
		mem.Add(names[i], patternedContent(2*i, fileSize)) // even index: compressible
	}
	b, err := NewBackend(conc.NewReal(), Config{FastCapacity: capacity, PromoteAfter: 1, Compress: true}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	b.SetBufferPool(pool)
	read := func(name string) {
		d, err := readFile(b, name)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	for _, n := range names {
		read(n)
	}
	st := b.Stats()
	if st.Declined == 0 || st.Residents == 0 || st.FastUsed >= st.FastLogical {
		t.Fatalf("fixture should be a full, declining, compressed tier: %+v", st)
	}
	for _, n := range names {
		for i := 0; i < heat && b.Resident(n); i++ {
			read(n)
		}
	}
	return b, pool, names
}

// TestCompressedHitAllocatesNothing pins the hit path of a compressing
// tier: a resident stored LZ-compressed is decoded in place into a pooled
// buffer, and the hit allocates nothing.
func TestCompressedHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const runs = 200
	b, _, names := fullCompressedTier(t, 20<<10, 64, 16<<10, 1)
	hot := names[0]
	if !b.Resident(hot) {
		t.Fatal("fixture: the first name read should be resident")
	}
	before := b.Stats()
	allocs := testing.AllocsPerRun(runs, func() {
		resp, err := b.Read(storage.Request{Name: hot})
		if err != nil {
			t.Fatal(err)
		}
		resp.Data.Release()
	})
	st := b.Stats()
	if allocs != 0 {
		t.Errorf("a compressed hit allocates %v objects, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of the counted runs.
	if hits := st.FastHits - before.FastHits; hits != runs+1 || st.DecodeTime == before.DecodeTime {
		t.Errorf("%d hits (want %d), decode time %v -> %v: the reads did not decode a compressed resident", hits, runs+1, before.DecodeTime, st.DecodeTime)
	}
	b.Close()
}

// TestDeclinedMissDoesNoWork pins where the decision is taken: a miss the
// full tier declines returns the slow tier's payload having compressed
// nothing, copied nothing, evicted nothing and allocated nothing — had it
// reached prepareEntry it would have allocated at least the entry.
func TestDeclinedMissDoesNoWork(t *testing.T) {
	const runs = 200
	b, pool, names := fullCompressedTier(t, 20<<10, 64, 16<<10, runs+2)
	cold := names[len(names)-1]
	if b.Resident(cold) {
		t.Fatal("fixture: the last name read should have been declined")
	}
	before := b.Stats()
	allocs := testing.AllocsPerRun(runs, func() {
		resp, err := b.Read(storage.Request{Name: cold})
		if err != nil {
			t.Fatal(err)
		}
		resp.Data.Release()
	})
	st := b.Stats()
	if allocs != 0 {
		t.Errorf("a declined miss allocates %v objects, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of the counted runs.
	if got := st.Declined - before.Declined; got != runs+1 {
		t.Errorf("declined %d of %d misses", got, runs+1)
	}
	if st.Promotions != before.Promotions || st.Evictions != 0 || st.PromoteTime != before.PromoteTime || st.FastUsed != before.FastUsed {
		t.Fatalf("declined misses did promotion work: before %+v after %+v", before, st)
	}
	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked across declined misses", n)
	}
}

// TestUnderEstimateNeverOverCommits pins the exact re-check behind the
// estimate. The tier holds only well-compressed residents, so an
// incompressible sample is estimated at a fraction of what it will charge
// and passes the decision into free space; admitLocked then sees the real
// size. Not hotter than the residents it would now have to displace, it is
// declined and its prepared copy dropped; strictly hotter, it evicts exactly
// enough of them. FastCapacity holds either way.
func TestUnderEstimateNeverOverCommits(t *testing.T) {
	const fileSize = 16 << 10
	b, pool, _ := fullCompressedTier(t, fileSize+fileSize/4, 64, fileSize, 2)
	mem := b.slow.(*storage.MemBackend)
	mem.Add("raw", patternedContent(1, fileSize)) // odd index: incompressible
	// Make room by estimate only: drop residents until the estimate fits
	// free space while the real size still does not.
	b.mu.Lock()
	est := b.estimateStoredLocked(storage.Data{Size: fileSize, Bytes: make([]byte, 1)})
	for b.main.capacity-b.main.used < est {
		b.evictLocked(b.main.order.Back())
	}
	free := b.main.capacity - b.main.used
	b.mu.Unlock()
	if est >= fileSize/2 || free >= fileSize || free < est {
		t.Fatalf("fixture: estimate %d, free %d, real %d — the estimate must fit and the real size must not", est, free, fileSize)
	}

	read := func() {
		d, err := readFile(b, "raw")
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	before := b.Stats()
	for i := 0; i < 4; i++ { // 0..3 earlier reads against residents read 3 times
		read()
		st := b.Stats()
		if b.Resident("raw") || st.Evictions != before.Evictions || st.FastUsed != before.FastUsed {
			t.Fatalf("read %d: under-estimated candidate no hotter than its victims got in: %+v", i+1, st)
		}
		if st.FastUsed > st.Capacity {
			t.Fatalf("tier over-committed: %+v", st)
		}
	}
	if got := b.Stats().Declined - before.Declined; got != 4 {
		t.Fatalf("declined = %d, want 4 (each refused by the exact re-check)", got)
	}
	read() // four earlier reads: hotter than every resident
	st := b.Stats()
	if !b.Resident("raw") || st.Evictions == before.Evictions {
		t.Fatalf("strictly hotter candidate not admitted over colder residents: %+v", st)
	}
	if st.FastUsed > st.Capacity {
		t.Fatalf("tier over-committed: %+v", st)
	}
	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked (a declined prepared copy was not dropped)", n)
	}
}
