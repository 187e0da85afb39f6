package tiering

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// patternedContent builds file i's payload: even-indexed files are highly
// compressible (long constant runs), odd ones pseudo-random so the codec
// falls back to verbatim residency — both fast-tier entry kinds stay under
// stress.
func patternedContent(i, size int) []byte {
	buf := make([]byte, size)
	if i%2 == 0 {
		for j := range buf {
			if j%97 == 0 {
				buf[j] = byte(i + j)
			} else {
				buf[j] = 0x5A
			}
		}
		return buf
	}
	rand.New(rand.NewSource(int64(i)*6151 + 7)).Read(buf)
	return buf
}

// TestTieringStressRace hammers the live tiered backend (real goroutines,
// pooled payloads, compression on, eviction pressure, concurrent warming
// plans) and then audits the pool: every reference handed out across
// hit/miss/decline/promote/evict/warm paths must come back. Traffic is
// skewed — three reads in four go to an eight-file hot window that moves
// every 50 reads — because uniform traffic over a full tier only ties and
// declines: it takes names that get hotter than the residents to keep the
// eviction path busy. Run under -race this doubles as the data-race
// regression suite for the snapshot-under-lock and single-winner-admit
// fixes.
func TestTieringStressRace(t *testing.T) {
	const (
		files    = 64
		fileSize = 32 << 10
		readers  = 8
		reads    = 300
	)
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	want := make([][]byte, files)
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("stress-%03d", i)
		want[i] = patternedContent(i, fileSize)
		mem.Add(names[i], want[i])
	}

	b, err := NewBackend(env, Config{
		FastCapacity: files * fileSize / 4, // eviction pressure
		PromoteAfter: 1,
		MaxTracked:   16, // decay pressure too
		Compress:     true,
	}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	b.SetBufferPool(pool)

	wg := env.NewWaitGroup()
	wg.Add(readers)
	for w := 0; w < readers; w++ {
		w := w
		env.Go(fmt.Sprintf("stress-reader-%d", w), func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < reads; i++ {
				idx := rng.Intn(files)
				if rng.Intn(4) != 0 {
					idx = (i/50*8 + rng.Intn(8)) % files
				}
				d, err := readFile(b, names[idx])
				if err != nil {
					t.Errorf("read %s: %v", names[idx], err)
					return
				}
				if int(d.Size) != fileSize || !bytes.Equal(d.Bytes, want[idx]) {
					t.Errorf("read %s: corrupted payload (size %d)", names[idx], d.Size)
					d.Release()
					return
				}
				if i%50 == 0 {
					b.PrefetchPlan(plan(names[idx:], fileSize))
				}
				d.Release()
			}
		})
	}
	wg.Wait()

	st := b.Stats()
	if st.FastHits == 0 || st.Promotions == 0 || st.Evictions < readers || st.Declined == 0 || st.AccessDecays == 0 {
		t.Fatalf("stress did not exercise the tier (hits, promotions, evictions, declines and decay sweeps all required): %+v", st)
	}
	if st.FastUsed > st.Capacity {
		t.Fatalf("tier overcommitted: %+v", st)
	}
	if st.FastUsed >= st.FastLogical && st.Residents > 1 {
		t.Fatalf("compression never engaged: used %d >= logical %d", st.FastUsed, st.FastLogical)
	}

	b.Close()
	// The warmer may still be finishing one in-flight item; give it a
	// moment before auditing the pool for leaked references.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked across the tiering paths", n)
	}
}

// TestCompressedHitDecodesInPlace pins the live compressed hit path: with no
// plan sized the resident is stored compressed (physical < logical), and a
// hit returns the original bytes in a pooled buffer.
func TestCompressedHitDecodesInPlace(t *testing.T) {
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	content := patternedContent(0, 16<<10)
	mem.Add("sample", content)

	b, err := NewBackend(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	b.SetBufferPool(pool)

	first, err := readFile(b, "sample") // miss + promote
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	st := b.Stats()
	if st.Residents != 1 || st.FastUsed >= st.FastLogical {
		t.Fatalf("resident not stored compressed: %+v", st)
	}

	hit, err := readFile(b, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit.Bytes, content) {
		t.Fatal("compressed hit returned wrong bytes")
	}
	if hit.Ref == nil {
		t.Fatal("pooled backend returned an unpooled decode buffer")
	}
	hit.Release()
	if b.Stats().FastHits != 1 {
		t.Fatalf("stats = %+v, want one fast hit", b.Stats())
	}

	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked", n)
	}
}

// TestIncompressibleResidentKeepsPooledRef pins the fallback: a resident
// that does not compress retains the slow tier's pooled buffer, and a hit
// hands the caller an additional retained reference to the same payload.
func TestIncompressibleResidentKeepsPooledRef(t *testing.T) {
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	content := patternedContent(1, 16<<10) // odd index: pseudo-random
	mem.Add("sample", content)

	b, err := NewBackend(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	b.SetBufferPool(pool)

	first, err := readFile(b, "sample")
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	st := b.Stats()
	if st.FastUsed != st.FastLogical {
		t.Fatalf("incompressible payload stored compressed? %+v", st)
	}

	hit, err := readFile(b, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit.Bytes, content) {
		t.Fatal("hit returned wrong bytes")
	}
	hit.Release()

	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked", n)
	}
}

// TestCompressedResidentsPinWhatTheyCharge is the accounting regression
// test: FastCapacity is a physical byte budget, so the memory compressed
// residents hold (the capacity of their backing arrays, not just the
// length in use) must be exactly what FastUsed charges for them.
func TestCompressedResidentsPinWhatTheyCharge(t *testing.T) {
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	const n = 32
	for i := 0; i < n; i++ {
		mem.Add(fmt.Sprintf("s%02d", i), patternedContent(2*i, 8<<10+i*100)) // even index: compressible
	}
	b, err := NewBackend(env, Config{FastCapacity: 1 << 24, PromoteAfter: 1, Compress: true}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < n; i++ {
		if _, err := readFile(b, fmt.Sprintf("s%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Residents != n || st.FastUsed >= st.FastLogical {
		t.Fatalf("fixture should hold %d compressed residents: %+v", n, st)
	}
	var pinned int64
	for el := b.main.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !e.compressed {
			t.Fatalf("%s: stored verbatim", e.name)
		}
		if int64(cap(e.bytes)) != e.stored {
			t.Errorf("%s: resident pins %d bytes, charged %d", e.name, cap(e.bytes), e.stored)
		}
		pinned += int64(cap(e.bytes))
	}
	if pinned != st.FastUsed {
		t.Fatalf("residents pin %d bytes, FastUsed charges %d", pinned, st.FastUsed)
	}
}
