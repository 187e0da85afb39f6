package tiering

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The plan-sizing fixture: planFiles compressible files of planFileSize
// bytes, each charged the 8 KiB class raw, under a budget that holds them
// all raw exactly — main ten of them, the recency window the other six.
const (
	planFiles    = 16
	planFileSize = 5000
	planClass    = 8 << 10
	planBudget   = planFiles * planClass
	planWindow   = 6 * planClass
)

// planTier builds a live compressing hierarchy with the given budget and
// window over a pooled in-memory slow tier of n compressible files of size
// bytes each, and returns it with its pool, the names and their contents.
func planTier(t *testing.T, env conc.Env, capacity, window int64, n, size int) (*Backend, *mempool.Pool, []string, map[string][]byte) {
	t.Helper()
	mem := storage.NewMemBackend()
	names := make([]string, n)
	contents := map[string][]byte{}
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
		contents[names[i]] = patternedContent(2*i, size) // even index: compressible
		mem.Add(names[i], contents[names[i]])
	}
	pool := mempool.New(mempool.Config{Debug: true})
	mem.SetBufferPool(pool)
	b, err := NewBackend(env, Config{FastCapacity: capacity, Window: window, PromoteAfter: 1, Compress: true}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.SetBufferPool(pool)
	return b, pool, names, contents
}

// readAll reads every name once, checks its bytes and releases it.
func readAll(t *testing.T, b *Backend, names []string, contents map[string][]byte) {
	t.Helper()
	for _, n := range names {
		d, err := readFile(b, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Bytes, contents[n]) {
			t.Fatalf("%s: payload differs", n)
		}
		d.Release()
	}
}

// residentForm reports whether name is resident and whether it is stored
// encoded, with the pooled reference a raw resident retains.
func residentForm(b *Backend, name string) (resident, encoded bool, ref *mempool.Ref) {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.resident[name]
	if !ok {
		return false, false, nil
	}
	e := el.Value.(*entry)
	return true, e.compressed, e.ref
}

// TestPlanSizedAdmission pins the rule: a compressing hierarchy sizes the
// live set — each sample the plans still being read name — against its
// whole budget at what the samples would charge raw, and admits raw while
// they fit. Then main takes what it admits raw, the recency window what main
// declines, a hit hands out the resident's own pooled buffer with nothing
// decoded, and once the reads are released the pool holds exactly one lease
// per resident. A live set over the budget — here by one sample more than
// the budget holds raw — or no plan at all leaves every admission encoded,
// as before: fewer bytes stored than held, hits decoding, and no lease held.
func TestPlanSizedAdmission(t *testing.T) {
	for _, c := range []struct {
		name   string
		plan   func(names []string) []dataset.Sample
		encode bool
	}{
		{"fits", func(names []string) []dataset.Sample { return plan(names, planFileSize) }, false},
		{"over-budget", func(names []string) []dataset.Sample { return plan(append(names, "extra"), planFileSize) }, true},
		{"no-plan", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, pool, names, contents := planTier(t, conc.NewReal(), planBudget, planWindow, planFiles, planFileSize)
			if c.plan != nil {
				b.SizePlans(c.plan(names))
			}
			readAll(t, b, names, contents)
			st := b.Stats()
			if st.Residents != planFiles {
				t.Fatalf("%d residents, want all %d: %+v", st.Residents, planFiles, st)
			}
			if c.encode {
				if st.Encoded != planFiles || st.FastUsed >= st.FastLogical {
					t.Fatalf("%+v; want every resident encoded, stored smaller than held", st)
				}
			} else if st.Encoded != 0 || st.FastUsed != planBudget || b.window.used != planWindow {
				t.Fatalf("%+v, window %d; want every resident raw, main full and the window holding the rest", st, b.window.used)
			}
			for _, n := range names {
				_, encoded, ref := residentForm(b, n)
				d, err := readFile(b, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(d.Bytes, contents[n]) {
					t.Fatalf("%s: hit payload differs", n)
				}
				if encoded != c.encode || (!encoded && d.Ref != ref) {
					t.Fatalf("%s: encoded %v; want %v, a raw hit handing out the resident's own buffer", n, encoded, c.encode)
				}
				d.Release()
			}
			st = b.Stats()
			if st.FastHits != planFiles || (st.DecodeTime == 0) == c.encode {
				t.Fatalf("%d hits, decode time %v; want %d hits, decoding only encoded residents", st.FastHits, st.DecodeTime, planFiles)
			}
			if want := int64(st.Residents - st.Encoded); pool.Outstanding() != want {
				t.Fatalf("%d leases out, want %d: one per raw resident", pool.Outstanding(), want)
			}
			b.Close()
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d leases out after Close: %v", n, pool.Leaks())
			}
		})
	}
}

// TestLaterPlanChangesOnlyLaterAdmissions: a live set sized later decides
// the admissions that follow it, and no resident changes form. Half the set
// is admitted under a live set that fits, the other half after one that does
// not: the first half stays raw, the second is encoded.
func TestLaterPlanChangesOnlyLaterAdmissions(t *testing.T) {
	b, pool, names, contents := planTier(t, conc.NewReal(), 1<<20, 0, planFiles, planFileSize)
	defer b.Close()
	first, second := names[:planFiles/2], names[planFiles/2:]
	b.SizePlans(plan(names, planFileSize))
	readAll(t, b, first, contents)
	b.SizePlans(plan(names, 1<<20)) // one entry alone is the whole budget
	readAll(t, b, second, contents)
	for i, n := range names {
		resident, encoded, _ := residentForm(b, n)
		if want := i >= len(first); !resident || encoded != want {
			t.Fatalf("%s: resident %v, encoded %v; want resident, encoded %v", n, resident, encoded, want)
		}
	}
	if st := b.Stats(); st.Encoded != len(second) || pool.Outstanding() != int64(len(first)) {
		t.Fatalf("%+v, %d leases out; want %d encoded and one lease per raw resident", st, pool.Outstanding(), len(second))
	}
}

// TestPlanSizedDuringPromotion: the raw-or-encoded decision is taken with
// the admission decision and carried to the copy, so a live set sized while
// a promotion is preparing its copy decides only the admissions after it.
func TestPlanSizedDuringPromotion(t *testing.T) {
	for _, c := range []struct {
		name          string
		before, after int64 // planned entry size: each plan is the whole set
		encodedFirst  bool
	}{
		{"encoded-then-fits", 1 << 20, planFileSize, true},
		{"fits-then-encoded", planFileSize, 1 << 20, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := &stallEnv{Env: conc.NewReal(), entered: make(chan struct{}), release: make(chan struct{})}
			b, pool, names, contents := planTier(t, env, 1<<20, 0, 2, planFileSize)
			b.SizePlans(plan(names, c.before))
			done := make(chan struct{})
			go func() {
				defer close(done)
				readAll(t, b, names[:1], contents)
			}()
			<-env.entered // decided, and preparing its copy
			b.SizePlans(plan(names, c.after))
			close(env.release)
			<-done
			readAll(t, b, names[1:], contents)
			for i, n := range names {
				resident, encoded, _ := residentForm(b, n)
				if want := c.encodedFirst == (i == 0); !resident || encoded != want {
					t.Fatalf("%s: resident %v, encoded %v; want resident, encoded %v", n, resident, encoded, want)
				}
			}
			b.Close()
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d leases out after Close: %v", n, pool.Leaks())
			}
		})
	}
}

// TestPlansSizedUnderConcurrentPromotions sizes live sets that alternately
// fit and do not while readers promote, hit and evict from real goroutines.
// Every read returns the file's bytes, the budget holds, Stats.Encoded is
// exactly the residents stored encoded, and the pool's leases are exactly
// the raw residents'. Run under -race it is the data-race check of the
// decision a read carries from its admission to its copy.
func TestPlansSizedUnderConcurrentPromotions(t *testing.T) {
	const (
		files   = 48
		readers = 4
		reads   = 400
		hot     = 8
	)
	b, pool, names, contents := planTier(t, conc.NewReal(), 24*planClass, 4*planClass, files, planFileSize)
	fits, over := plan(names[:20], planFileSize), plan(names, planFileSize)
	stop := make(chan struct{})
	var sizer sync.WaitGroup
	sizer.Add(1)
	go func() {
		defer sizer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				b.SizePlans(fits)
			} else {
				b.SizePlans(over)
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < reads; i++ {
				// A hot window that moves every 50 reads keeps names getting
				// hotter than the residents, so promotions keep evicting.
				n := names[rng.Intn(files)]
				if rng.Intn(4) != 0 {
					n = names[(i/50*hot+rng.Intn(hot))%files]
				}
				d, err := readFile(b, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(d.Bytes, contents[n]) {
					t.Errorf("%s: payload differs", n)
				}
				d.Release()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	sizer.Wait()

	st := b.Stats()
	encoded := 0
	for _, n := range names {
		if _, e, _ := residentForm(b, n); e {
			encoded++
		}
	}
	if st.Promotions == 0 || st.FastUsed > st.Capacity || st.Encoded != encoded {
		t.Fatalf("%+v, %d residents encoded; want promotions within the budget and Encoded counting exactly the encoded residents", st, encoded)
	}
	if want := int64(st.Residents - st.Encoded); pool.Outstanding() != want {
		t.Fatalf("%d leases out, want %d: one per raw resident", pool.Outstanding(), want)
	}
	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d leases out after Close: %v", n, pool.Leaks())
	}
}
