package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// TestBufferShardedSemantics checks the paper's buffer contract holds at
// every shard count: bounded occupancy, evict-on-read, waiting-consumer
// admission, close semantics.
func TestBufferShardedSemantics(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			runSim(t, func(env conc.Env) {
				b := NewShardedBuffer(env, 8, 0, k)
				if got := b.Shards(); got != k {
					t.Fatalf("Shards() = %d, want %d", got, k)
				}
				for i := 0; i < 8; i++ {
					if _, err := b.Put(Item{Name: fmt.Sprintf("s%d", i), Size: 1}); err != nil {
						t.Fatal(err)
					}
				}
				if got := b.Len(); got != 8 {
					t.Fatalf("Len = %d, want 8", got)
				}
				for i := 0; i < 8; i++ {
					name := fmt.Sprintf("s%d", i)
					it, err := b.Take(name, TakeOptions{})
					if err != nil || it.Name != name {
						t.Fatalf("Take(%s) = %+v, %v", name, it, err)
					}
				}
				if got := b.Len(); got != 0 {
					t.Fatalf("Len = %d after draining, want 0 (evict-on-read)", got)
				}
			})
		})
	}
}

// TestBufferShardedEvictOnRead verifies a second Take of the same name
// blocks until a fresh Put, at K > 1.
func TestBufferShardedEvictOnRead(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewShardedBuffer(env, 8, 0, 4)
		done := env.NewWaitGroup()
		done.Add(1)
		env.Go("re-taker", func() {
			defer done.Done()
			if _, err := b.Take("x", TakeOptions{}); err != nil {
				t.Error("first Take failed")
			}
			if _, err := b.Take("x", TakeOptions{}); err != nil {
				t.Error("second Take failed")
			}
		})
		if _, err := b.Put(Item{Name: "x"}); err != nil {
			t.Fatal(err)
		}
		env.Sleep(time.Second) // let the consumer block on the evicted name
		if _, err := b.Put(Item{Name: "x"}); err != nil {
			t.Fatal(err)
		}
		done.Wait()
	})
}

// TestBufferShardedCapacityBudget verifies the global capacity partition:
// per-shard budgets sum exactly to N and every shard owns at least one
// slot, for awkward N/K combinations.
func TestBufferShardedCapacityBudget(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, wantShards int }{
		{8, 3, 3},
		{7, 7, 7},
		{3, 8, 3},  // K clamped to N
		{1, 16, 1}, // degenerate: single slot
	} {
		caps := partitionCapacity(tc.capacity, clampShards(tc.shards, tc.capacity))
		if len(caps) != tc.wantShards {
			t.Fatalf("N=%d K=%d: %d shards, want %d", tc.capacity, tc.shards, len(caps), tc.wantShards)
		}
		sum := 0
		for _, c := range caps {
			if c < 1 {
				t.Fatalf("N=%d K=%d: shard budget %d < 1", tc.capacity, tc.shards, c)
			}
			sum += c
		}
		if sum != tc.capacity {
			t.Fatalf("N=%d K=%d: budgets sum to %d", tc.capacity, tc.shards, sum)
		}
	}
}

// TestBufferShardedThroughput is the tentpole's acceptance case in
// miniature: with a serialized per-operation access cost and 8 paired
// producer/consumer couples, K=8 must finish at least 2x faster than K=1
// (it is ~8x in virtual time; the bound is slack for hash imbalance).
func TestBufferShardedThroughput(t *testing.T) {
	const (
		consumers   = 8
		perConsumer = 50
		cost        = 55 * time.Microsecond
	)
	run := func(k int) time.Duration {
		var makespan time.Duration
		runSim(t, func(env conc.Env) {
			b := NewShardedBuffer(env, 4*consumers, cost, k)
			wg := env.NewWaitGroup()
			start := env.Now()
			for c := 0; c < consumers; c++ {
				c := c
				wg.Add(2)
				env.Go(fmt.Sprintf("p%d", c), func() {
					defer wg.Done()
					for i := 0; i < perConsumer; i++ {
						if _, err := b.Put(Item{Name: fmt.Sprintf("c%d/s%d", c, i)}); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					}
				})
				env.Go(fmt.Sprintf("c%d", c), func() {
					defer wg.Done()
					for i := 0; i < perConsumer; i++ {
						if _, err := b.Take(fmt.Sprintf("c%d/s%d", c, i), TakeOptions{}); err != nil {
							t.Errorf("take failed")
							return
						}
					}
				})
			}
			wg.Wait()
			makespan = env.Now() - start
		})
		return makespan
	}
	single := run(1)
	sharded := run(8)
	if want := 2 * consumers * perConsumer * cost; single != time.Duration(want) {
		t.Fatalf("K=1 makespan %v, want fully serialized %v", single, time.Duration(want))
	}
	if sharded*2 > single {
		t.Fatalf("K=8 makespan %v not 2x faster than K=1 %v", sharded, single)
	}
}

// TestBufferProducerWaitAccounting verifies a producer parked on a full
// buffer is charged exactly the time it was blocked, once, when a capacity
// grow releases it.
func TestBufferProducerWaitAccounting(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewShardedBuffer(env, 1, 0, 1)
		if _, err := b.Put(Item{Name: "fill"}); err != nil {
			t.Fatal(err)
		}
		done := env.NewWaitGroup()
		done.Add(1)
		env.Go("blocked-producer", func() {
			defer done.Done()
			if _, err := b.Put(Item{Name: "second"}); err != nil {
				t.Errorf("put: %v", err)
			}
		})
		env.Sleep(2 * time.Second)
		b.SetCapacity(4) // the grow releases the producer
		done.Wait()
		st := b.Stats()
		if st.ProducerWait != 2*time.Second {
			t.Fatalf("ProducerWait = %v, want exactly 2s (no double counting)", st.ProducerWait)
		}
	})
}

// TestBufferSetCapacityShrinkDrainsLazily shrinks N below the current
// occupancy: no deadlock, Puts stay blocked until consumers drain the
// buffer under the new budget, and the waiting-consumer exception still
// admits awaited samples.
func TestBufferSetCapacityShrinkDrainsLazily(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 8, 0)
		for i := 0; i < 8; i++ {
			if _, err := b.Put(Item{Name: fmt.Sprintf("s%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		b.SetCapacity(2)
		if got := b.Len(); got != 8 {
			t.Fatalf("shrink must not discard items: Len = %d", got)
		}
		// A producer of an un-awaited sample must block while over budget.
		produced := env.NewWaitGroup()
		produced.Add(1)
		var putDone time.Duration
		env.Go("over-budget-producer", func() {
			defer produced.Done()
			if _, err := b.Put(Item{Name: "new"}); err != nil {
				t.Errorf("put: %v", err)
			}
			putDone = env.Now()
		})
		env.Sleep(time.Second)
		// Drain to one under the new budget: 8 -> 1.
		for i := 0; i < 7; i++ {
			if _, err := b.Take(fmt.Sprintf("s%d", i), TakeOptions{}); err != nil {
				t.Fatalf("drain take s%d failed", i)
			}
		}
		produced.Wait()
		if putDone == 0 {
			t.Fatal("producer never unblocked after drain")
		}
		// The waiting-consumer exception must admit an awaited sample even
		// while the buffer sits at the shrunken budget.
		got := env.NewWaitGroup()
		got.Add(1)
		env.Go("awaiting-consumer", func() {
			defer got.Done()
			if _, err := b.Take("awaited", TakeOptions{}); err != nil {
				t.Error("awaited take failed")
			}
		})
		env.Sleep(time.Second)
		if _, err := b.Put(Item{Name: "awaited"}); err != nil {
			t.Fatal(err)
		}
		got.Wait()
	})
}

// TestBufferLostWakeupRegression is the satellite-#1 regression: a full
// buffer, two blocked producers, and one consumer waiting for the second
// producer's sample. The consumer's Take of an unrelated buffered sample
// evicts it and wakes producers; with Signal the single wakeup could land
// on producer A (still blocked: the buffer refilled via the admission
// exception is over capacity) while producer B — whose sample the consumer
// awaits — slept forever. Run with -race; real env exercises sync.Cond
// barging, which the FIFO simulator cannot.
func TestBufferLostWakeupRegression(t *testing.T) {
	env := conc.NewReal()
	b := NewBuffer(env, 1, 0)
	if _, err := b.Put(Item{Name: "filler"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // producer A: sample nobody awaits; stays blocked longest
		defer wg.Done()
		if _, err := b.Put(Item{Name: "unawaited"}); err != nil {
			t.Errorf("producer A: %v", err)
		}
	}()
	go func() { // producer B: the sample the consumer will wait for
		defer wg.Done()
		if _, err := b.Put(Item{Name: "wanted"}); err != nil {
			t.Errorf("producer B: %v", err)
		}
	}()
	time.Sleep(50 * time.Millisecond) // both producers parked on notFull

	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		// Evicting the filler wakes producers; then the consumer blocks on
		// "wanted" until producer B is admitted.
		if _, err := b.Take("filler", TakeOptions{}); err != nil {
			t.Error("take filler failed")
		}
		if _, err := b.Take("wanted", TakeOptions{}); err != nil {
			t.Error("take wanted failed")
		}
	}()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lost wakeup: consumer stalled waiting for a blocked producer")
	}
	// Unblock producer A if still parked (its sample was never awaited).
	if _, err := b.Take("unawaited", TakeOptions{}); err != nil {
		t.Fatal("take unawaited failed")
	}
	wg.Wait()
	b.Close()
}

// TestBufferStatsConsistentUnderConcurrency is the satellite-#2
// regression: Stats taken while producers and consumers hammer the buffer
// must never tear — Takes <= Puts, Len within bounds, non-negative waits.
// Run with -race.
func TestBufferStatsConsistentUnderConcurrency(t *testing.T) {
	env := conc.NewReal()
	const (
		workers = 4
		items   = 300
	)
	b := NewShardedBuffer(env, 8, 0, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if _, err := b.Put(Item{Name: fmt.Sprintf("w%d/s%d", w, i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if _, err := b.Take(fmt.Sprintf("w%d/s%d", w, i), TakeOptions{}); err != nil {
					t.Errorf("take failed")
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := b.Stats()
			if st.Takes > st.Puts {
				snapErr = fmt.Errorf("torn snapshot: Takes %d > Puts %d", st.Takes, st.Puts)
				return
			}
			if st.Len < 0 || st.ConsumerWait < 0 || st.ProducerWait < 0 || st.MeanOccupancy < 0 {
				snapErr = fmt.Errorf("torn snapshot: %+v", st)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	st := b.Stats()
	if want := int64(workers * items); st.Puts != want || st.Takes != want {
		t.Fatalf("final counters puts=%d takes=%d, want %d", st.Puts, st.Takes, want)
	}
	b.Close()
}

// TestBufferShardedCloseUnblocks verifies Close releases waiters parked on
// every shard, not just one.
func TestBufferShardedCloseUnblocks(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewShardedBuffer(env, 8, 0, 4)
		done := env.NewWaitGroup()
		for i := 0; i < 8; i++ {
			i := i
			done.Add(1)
			env.Go(fmt.Sprintf("waiter-%d", i), func() {
				defer done.Done()
				if _, err := b.Take(fmt.Sprintf("never-%d", i), TakeOptions{}); err == nil {
					t.Error("take succeeded on closed buffer")
				}
			})
		}
		env.Sleep(time.Second)
		b.Close()
		done.Wait()
		if _, err := b.Put(Item{Name: "x"}); err != ErrClosed {
			t.Fatalf("Put after Close = %v, want ErrClosed", err)
		}
	})
}

// TestBufferShardIndexDeterministic pins the name->shard mapping: the
// simulator's reproducibility depends on it never changing.
func TestBufferShardIndexDeterministic(t *testing.T) {
	for _, k := range []int{1, 2, 7, 16} {
		for _, name := range []string{"", "a", "train/img_000001.jpg"} {
			i1 := shardIndex(name, k)
			i2 := shardIndex(name, k)
			if i1 != i2 || i1 < 0 || i1 >= k {
				t.Fatalf("shardIndex(%q, %d) = %d then %d", name, k, i1, i2)
			}
		}
	}
}
