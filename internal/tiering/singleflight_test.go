package tiering

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestSingleFlightCollapsesConcurrentMisses is the sharing contract: readers
// that miss on one name while its slow read is in flight are handed that
// read's payload — one slow read for all of them — whether the hierarchy
// then keeps the sample (room) or not (a sample larger than the budget).
func TestSingleFlightCollapsesConcurrentMisses(t *testing.T) {
	for _, capacity := range []int64{1 << 20, 500} {
		runSim(t, func(env conc.Env) {
			b, dev, names := deviceFixture(env, Config{FastCapacity: capacity, PromoteAfter: 1}, 1, 1000)
			wg := env.NewWaitGroup()
			wg.Add(5)
			for i := 0; i < 5; i++ {
				env.Go(fmt.Sprintf("job-%d", i), func() {
					defer wg.Done()
					if d, err := readFile(b, names[0]); err != nil || d.Size != 1000 {
						t.Errorf("read = %+v, %v", d, err)
					}
				})
			}
			wg.Wait()
			st := b.Stats()
			if dev.Stats().Reads != 1 || st.SlowReads != 1 || st.Waits != 4 {
				t.Fatalf("capacity %d: %d device reads, %+v; want one read joined by four", capacity, dev.Stats().Reads, st)
			}
			if kept := st.Residents == 1; kept != (capacity > 1000) {
				t.Fatalf("capacity %d: residents %d", capacity, st.Residents)
			}
		})
	}
}

// TestSingleFlightSpans proves trace context survives the single-flight
// path: for ONE slow read, the reader that issued it emits a miss span
// against its trace and the joined reader a coalesce span plus the hit it
// wakes to against its own, so joined waits are visible to attribution.
func TestSingleFlightSpans(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, dev, names := deviceFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 1, 1000)
		tracer := obs.NewTracer(env, obs.TracerOptions{Sampling: 1})
		b.SetTracer(tracer)

		leader := tracer.StartTrace()
		follower := tracer.StartTrace()
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go("leader", func() {
			defer wg.Done()
			if _, err := b.Read(storage.Request{Name: names[0], Ctx: leader}); err != nil {
				t.Errorf("leader read: %v", err)
			}
		})
		env.Go("follower", func() {
			defer wg.Done()
			env.Sleep(time.Millisecond) // arrive mid-fetch
			if _, err := b.Read(storage.Request{Name: names[0], Ctx: follower}); err != nil {
				t.Errorf("follower read: %v", err)
			}
		})
		wg.Wait()

		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1 (single flight)", dev.Stats().Reads)
		}
		miss, coalesce, hit := tracer.SpansFor(obs.StageCacheMiss), tracer.SpansFor(obs.StageCacheCoalesce), tracer.SpansFor(obs.StageCacheHit)
		if len(miss) != 1 || len(coalesce) != 1 || len(hit) != 1 {
			t.Fatalf("spans = %d miss / %d coalesce / %d hit, want 1/1/1", len(miss), len(coalesce), len(hit))
		}
		if miss[0].Trace != leader.Trace || coalesce[0].Trace != follower.Trace || hit[0].Trace != follower.Trace {
			t.Fatalf("span traces miss %d, coalesce %d, hit %d; want leader %d, follower %d",
				miss[0].Trace, coalesce[0].Trace, hit[0].Trace, leader.Trace, follower.Trace)
		}
		// The follower joined 1 ms into the read and waited out the rest of
		// it: the span and the always-on counter agree.
		if coalesce[0].Latency <= 0 || b.Stats().WaitTime != coalesce[0].Latency {
			t.Errorf("coalesce latency %v, WaitTime %v; want the same positive wait", coalesce[0].Latency, b.Stats().WaitTime)
		}
	})
}

// TestHandOffLeasesBalance: the payload a slow read hands its joined readers
// carries one pooled reference per reader, so with the hierarchy keeping
// nothing (the sample is larger than the budget) every reader gets the
// leader's bytes and the pool is whole once each has released.
func TestHandOffLeasesBalance(t *testing.T) {
	runSim(t, func(env conc.Env) {
		mem := storage.NewMemBackend()
		want := mem.AddSeeded("s", 10_000, 5)
		pool := mempool.New(mempool.Config{Debug: true})
		mem.SetBufferPool(pool)
		slow := storage.NewFaultyBackend(env, mem)
		slow.SetLatency(10 * time.Millisecond)
		b, err := NewBackend(env, Config{FastCapacity: 5000, PromoteAfter: 1}, slow, nil)
		if err != nil {
			t.Fatal(err)
		}
		const readers = 5
		got := make([]storage.Data, readers)
		wg := env.NewWaitGroup()
		wg.Add(readers)
		for i := range got {
			i := i
			env.Go(fmt.Sprintf("reader-%d", i), func() {
				defer wg.Done()
				d, err := readFile(b, "s")
				if err != nil {
					t.Errorf("read: %v", err)
				}
				got[i] = d
			})
		}
		wg.Wait()
		if st := b.Stats(); st.SlowReads != 1 || st.Waits != readers-1 || st.Residents != 0 {
			t.Fatalf("%+v; want one slow read shared by %d joined readers, nothing kept", st, readers-1)
		}
		for i := range got {
			if !bytes.Equal(got[i].Bytes, want) {
				t.Fatalf("reader %d got bytes differing from the file", i)
			}
			got[i].Release()
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("outstanding refs = %d, want 0: %v", n, pool.Leaks())
		}
	})
}

// gated is a pooled in-memory leaf whose reads block until open is closed,
// so a test can park joined readers behind a leader under real threads.
type gated struct {
	*storage.MemBackend
	open chan struct{}
}

func (g gated) Read(req storage.Request) (storage.Response, error) {
	<-g.open
	return g.MemBackend.Read(req)
}

// TestHandOffConcurrent is the hand-off under real threads (run with -race):
// N readers of one name, one slow read, byte-identical payloads, and no
// lease left once every reader has released and the hierarchy is closed —
// whether it kept the sample or declined it.
func TestHandOffConcurrent(t *testing.T) {
	const readers = 8
	for _, capacity := range []int64{1 << 20, 1000} {
		mem := storage.NewMemBackend()
		want := mem.AddSeeded("s", 10_000, 23)
		pool := mempool.New(mempool.Config{Debug: true})
		mem.SetBufferPool(pool)
		leaf := gated{mem, make(chan struct{})}
		b, err := NewBackend(conc.NewReal(), Config{FastCapacity: capacity, PromoteAfter: 1}, leaf, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		read := func() {
			defer wg.Done()
			d, err := readFile(b, "s")
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(d.Bytes, want) {
				t.Errorf("payload differs from the leaf's content")
			}
			d.Release()
		}
		wg.Add(readers)
		go read()
		for {
			b.mu.Lock()
			_, leading := b.inflight["s"]
			b.mu.Unlock()
			if leading {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for i := 1; i < readers; i++ {
			go read()
		}
		for b.Stats().Waits < readers-1 { // every other reader is parked behind it
			time.Sleep(time.Millisecond)
		}
		close(leaf.open)
		wg.Wait()
		if st := b.Stats(); st.SlowReads != 1 || st.FastHits != 0 {
			t.Fatalf("capacity %d: %+v; want one slow read and %d joined readers", capacity, st, readers-1)
		}
		b.Close()
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("capacity %d: outstanding refs = %d, want 0: %v", capacity, n, pool.Leaks())
		}
	}
}

// countingLeaf is a pooled in-memory leaf that counts the reads reaching it.
type countingLeaf struct {
	*storage.MemBackend
	reads atomic.Int64
}

func (c *countingLeaf) Read(req storage.Request) (storage.Response, error) {
	c.reads.Add(1)
	return c.MemBackend.Read(req)
}

// stallEnv parks the first clock reading — on a miss nobody joined, the
// issuing reader's as it starts preparing the resident copy — until release
// is closed. Later readings pass.
type stallEnv struct {
	conc.Env
	stalled          atomic.Bool
	entered, release chan struct{}
}

func (e *stallEnv) Now() time.Duration {
	if e.stalled.CompareAndSwap(false, true) {
		close(e.entered)
		<-e.release
	}
	return e.Env.Now()
}

// TestReaderDuringPromoteIsHandedThePayload: a reader arriving after the
// slow read ended but before its copy is resident (the issuer is still
// encoding it) is handed the read's payload — no second slow read, no second
// copy prepared and thrown away — and every lease comes back.
func TestReaderDuringPromoteIsHandedThePayload(t *testing.T) {
	mem := storage.NewMemBackend()
	want := mem.AddSeeded("s", 10_000, 3)
	pool := mempool.New(mempool.Config{Debug: true})
	mem.SetBufferPool(pool)
	leaf := &countingLeaf{MemBackend: mem}
	env := &stallEnv{Env: conc.NewReal(), entered: make(chan struct{}), release: make(chan struct{})}
	b, err := NewBackend(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, leaf, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan storage.Data, 1)
	go func() {
		d, err := readFile(b, "s")
		if err != nil {
			t.Error(err)
		}
		first <- d
	}()
	<-env.entered
	if b.Resident("s") {
		t.Fatal("resident before the issuer admitted it")
	}
	late, err := readFile(b, "s")
	if err != nil || !bytes.Equal(late.Bytes, want) {
		t.Fatalf("late reader: %v, payload equal %v", err, bytes.Equal(late.Bytes, want))
	}
	close(env.release)
	issuer := <-first
	st := b.Stats()
	if leaf.reads.Load() != 1 || st.SlowReads != 1 || st.Waits != 1 || st.Promotions != 1 || st.Residents != 1 {
		t.Fatalf("%d leaf reads, %+v; want one slow read, one joined read, one promotion", leaf.reads.Load(), st)
	}
	if st.TrackedNames != 0 {
		t.Fatalf("%d names tracked: the joined read's count did not move onto the resident", st.TrackedNames)
	}
	issuer.Release()
	late.Release()
	b.Close()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("outstanding refs = %d, want 0: %v", n, pool.Leaks())
	}
}

// TestWarmIsJoined: the warmer's slow read is the name's flight, so a demand
// read of the name arriving while it is in flight is handed the warm's
// payload instead of reading the device a second time.
func TestWarmIsJoined(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, dev, names := deviceFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 1, 1000)
		b.PrefetchPlan(plan(names, 1000))
		env.Sleep(time.Millisecond) // the warm is on the device
		if _, err := readFile(b, names[0]); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if dev.Stats().Reads != 1 || st.Waits != 1 || st.SlowReads != 0 || st.PrefetchPromotions != 1 {
			t.Fatalf("%d device reads, %+v; want the warm's one read, joined", dev.Stats().Reads, st)
		}
		b.Close()
	})
}

// TestJoinedReadsCount: a read that joins another's slow read counts one
// access on the name like a read of its own, so with PromoteAfter 2 two
// readers at the same moment promote the sample, as two reads a moment apart
// do.
func TestJoinedReadsCount(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, dev, names := deviceFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 2}, 2, 1000)
		wg := env.NewWaitGroup()
		wg.Add(2)
		for i := 0; i < 2; i++ {
			env.Go(fmt.Sprintf("together-%d", i), func() {
				defer wg.Done()
				if _, err := readFile(b, names[0]); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
		for i := 0; i < 2; i++ {
			if _, err := readFile(b, names[1]); err != nil {
				t.Fatal(err)
			}
		}
		if !b.Resident(names[0]) || !b.Resident(names[1]) {
			t.Fatalf("resident: together %v, apart %v; want both promoted on their second read", b.Resident(names[0]), b.Resident(names[1]))
		}
		if st := b.Stats(); dev.Stats().Reads != 3 || st.Waits != 1 || st.Promotions != 2 {
			t.Fatalf("%d device reads, %+v; want 1 + 2 reads, one joined, two promotions", dev.Stats().Reads, st)
		}
	})
}

// TestFailedReadIsNotHandedOn: when the slow read others joined fails, its
// error stays with the reader that issued it — the joined readers go round
// and read for themselves (one of them leading, the rest joining it), so a
// transient fault costs one retry, not one error per reader.
func TestFailedReadIsNotHandedOn(t *testing.T) {
	runSim(t, func(env conc.Env) {
		_, dev, names := deviceFixture(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, 1, 1000)
		slow := storage.NewFaultyBackend(env, storage.NewModeledBackend(dataset.MustNew([]dataset.Sample{{Name: names[0], Size: 1000}}), dev))
		slow.SetLatency(10 * time.Millisecond)
		slow.FailNTimes(names[0], 1)
		b, err := NewBackend(env, Config{FastCapacity: 1 << 20, PromoteAfter: 1}, slow, nil)
		if err != nil {
			t.Fatal(err)
		}
		var failed int
		wg := env.NewWaitGroup()
		wg.Add(5)
		for i := 0; i < 5; i++ {
			env.Go(fmt.Sprintf("reader-%d", i), func() {
				defer wg.Done()
				if _, err := readFile(b, names[0]); errors.Is(err, storage.ErrInjected) {
					failed++
				} else if err != nil {
					t.Errorf("read: %v", err)
				}
			})
		}
		wg.Wait()
		if st := b.Stats(); failed != 1 || dev.Stats().Reads != 1 || st.SlowReads != 1 || st.Residents != 1 {
			t.Fatalf("%d readers failed, %d device reads, %+v; want the one fault reported once and one good read shared", failed, dev.Stats().Reads, st)
		}
	})
}

// TestChargesWhatItPins: a pooled raw resident is charged the size class of
// the buffer it retains, not the payload's length, so the budget bounds the
// memory the residents hold; an unpooled resident pins its own length and is
// charged that.
func TestChargesWhatItPins(t *testing.T) {
	const files, size, class = 8, 5000, 8192
	build := func(pool *mempool.Pool) (*Backend, []string) {
		mem := storage.NewMemBackend()
		names := make([]string, files)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
			mem.AddSeeded(names[i], size, int64(i))
		}
		mem.SetBufferPool(pool)
		b, err := NewBackend(conc.NewReal(), Config{FastCapacity: 4 * class, PromoteAfter: 1}, mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			d, err := readFile(b, n)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
		}
		return b, names
	}

	pool := mempool.New(mempool.Config{Debug: true})
	b, _ := build(pool)
	// By payload length six would fit (6 x 5000 <= 32768); they pin 8 KiB each.
	if st := b.Stats(); st.Residents != 4 || st.FastUsed != 4*class || st.Declined != files-4 {
		t.Fatalf("pooled: %+v; want 4 residents charged %d each", st, class)
	}
	if n := pool.Outstanding(); n != 4 {
		t.Fatalf("pool has %d buffers out, want the 4 residents'", n)
	}
	b.Close()
	if st := b.Stats(); st.FastUsed != 0 || pool.Outstanding() != 0 {
		t.Fatalf("after Close: %+v, %d buffers out", st, pool.Outstanding())
	}

	b, _ = build(nil)
	if st := b.Stats(); st.Residents != 6 || st.FastUsed != 6*size {
		t.Fatalf("unpooled: %+v; want 6 residents charged their length", st)
	}
}
