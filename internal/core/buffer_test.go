package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// at is a bare buffer's position i: the tests key samples by their own
// sequence numbers, as the buffer's non-plan users do.
func at(i int) PlanPos { return PlanPos{Index: i} }

// runSim executes body as a simulated process, failing the test on any
// simulation error (including deadlock).
func runSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBufferPutTake(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		if _, err := b.Put(Item{Name: "a", PlanPos: at(0), Size: 10}); err != nil {
			t.Fatal(err)
		}
		it, err := b.Take(at(0), TakeOptions{})
		if err != nil || it.Name != "a" || it.Size != 10 {
			t.Fatalf("Take = %+v, %v", it, err)
		}
		if b.Len() != 0 {
			t.Fatalf("Len = %d after evict-on-read, want 0", b.Len())
		}
	})
}

func TestBufferEvictOnRead(t *testing.T) {
	// After a Take, the same sample is gone: a second Take must block until
	// a fresh Put arrives (each file is read once per epoch; re-reading
	// requires re-prefetching).
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		_, _ = b.Put(Item{Name: "a", PlanPos: at(0)})
		_, _ = b.Take(at(0), TakeOptions{})
		done := false
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("second-take", func() {
			defer wg.Done()
			_, err := b.Take(at(0), TakeOptions{})
			done = err == nil
		})
		env.Sleep(time.Second)
		if done {
			t.Fatal("second Take returned without a new Put")
		}
		_, _ = b.Put(Item{Name: "a", PlanPos: at(0)})
		wg.Wait()
		if !done {
			t.Fatal("second Take failed after re-Put")
		}
	})
}

func TestBufferTakeBlocksUntilArrival(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		var arrivedAt time.Duration
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("consumer", func() {
			defer wg.Done()
			if _, err := b.Take(at(3), TakeOptions{}); err != nil {
				t.Error("Take reported closed")
			}
			arrivedAt = env.Now()
		})
		env.Sleep(3 * time.Second)
		_, _ = b.Put(Item{Name: "later", PlanPos: at(3)})
		wg.Wait()
		if arrivedAt != 3*time.Second {
			t.Errorf("consumer released at %v, want 3s", arrivedAt)
		}
		st := b.Stats()
		if st.ConsumerWait != 3*time.Second {
			t.Errorf("ConsumerWait = %v, want 3s", st.ConsumerWait)
		}
	})
}

func TestBufferPutBlocksWhenFull(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 2, 0)
		_, _ = b.Put(Item{Name: "a", PlanPos: at(0)})
		_, _ = b.Put(Item{Name: "b", PlanPos: at(1)})
		var putDone time.Duration
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("producer", func() {
			defer wg.Done()
			_, _ = b.Put(Item{Name: "c", PlanPos: at(2)})
			putDone = env.Now()
		})
		env.Sleep(2 * time.Second)
		_, _ = b.Take(at(0), TakeOptions{}) // frees a slot
		wg.Wait()
		if putDone != 2*time.Second {
			t.Errorf("blocked Put completed at %v, want 2s", putDone)
		}
		if st := b.Stats(); st.ProducerWait != 2*time.Second {
			t.Errorf("ProducerWait = %v, want 2s", st.ProducerWait)
		}
	})
}

func TestBufferFullAdmitsAwaitedSample(t *testing.T) {
	// The ordering deadlock the waiting-set exists for: the buffer is full
	// of samples nobody wants yet, and the consumer's next sample is still
	// in a producer's hands. The Put must be admitted over capacity.
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 2, 0)
		_, _ = b.Put(Item{Name: "x", PlanPos: at(4)})
		_, _ = b.Put(Item{Name: "y", PlanPos: at(5)})
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go("consumer", func() {
			defer wg.Done()
			if _, err := b.Take(at(6), TakeOptions{}); err != nil {
				t.Error("Take(wanted) reported closed")
			}
		})
		env.Go("producer", func() {
			defer wg.Done()
			env.Sleep(time.Second)
			if _, err := b.Put(Item{Name: "wanted", PlanPos: at(6)}); err != nil {
				t.Errorf("over-capacity Put of awaited sample failed: %v", err)
			}
		})
		wg.Wait()
	})
}

func TestBufferSetCapacityGrowReleasesProducers(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 1, 0)
		_, _ = b.Put(Item{Name: "a", PlanPos: at(0)})
		released := false
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("producer", func() {
			defer wg.Done()
			_, _ = b.Put(Item{Name: "b", PlanPos: at(1)})
			released = true
		})
		env.Sleep(time.Second)
		if released {
			t.Fatal("Put proceeded while full")
		}
		b.SetCapacity(2)
		wg.Wait()
		if !released {
			t.Fatal("growing capacity did not release the producer")
		}
		if b.Capacity() != 2 {
			t.Fatalf("Capacity = %d, want 2", b.Capacity())
		}
	})
}

func TestBufferSetCapacityClampsToOne(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		b.SetCapacity(0)
		if b.Capacity() != 1 {
			t.Fatalf("Capacity = %d, want clamp to 1", b.Capacity())
		}
	})
}

func TestBufferCloseUnblocksEverybody(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 1, 0)
		_, _ = b.Put(Item{Name: "filler", PlanPos: at(7)})
		wg := env.NewWaitGroup()
		wg.Add(2)
		var takeErr error
		var putErr error
		env.Go("consumer", func() {
			defer wg.Done()
			_, takeErr = b.Take(at(8), TakeOptions{})
		})
		env.Go("producer", func() {
			defer wg.Done()
			_, putErr = b.Put(Item{Name: "stuck", PlanPos: at(9)})
		})
		env.Sleep(time.Second)
		b.Close()
		wg.Wait()
		if takeErr != ErrClosed {
			t.Errorf("Take = %v, want ErrClosed", takeErr)
		}
		if putErr != ErrClosed {
			t.Errorf("Put = %v, want ErrClosed", putErr)
		}
		if _, err := b.Put(Item{Name: "post", PlanPos: at(10)}); err != ErrClosed {
			t.Errorf("post-close Put = %v, want ErrClosed", err)
		}
	})
}

func TestBufferAccessCostSerializes(t *testing.T) {
	// With a 10ms access cost, 5 puts followed by 5 takes consume 100ms of
	// serialized buffer time even though callers run "concurrently".
	s := sim.New()
	env := conc.NewSimEnv(s)
	var makespan time.Duration
	s.Spawn("driver", func(*sim.Process) {
		b := NewBuffer(env, 10, 10*time.Millisecond)
		wg := env.NewWaitGroup()
		wg.Add(10)
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("f%d", i)
			env.Go("producer", func() {
				defer wg.Done()
				_, _ = b.Put(Item{Name: name, PlanPos: at(i)})
			})
			env.Go("consumer", func() {
				defer wg.Done()
				_, _ = b.Take(at(i), TakeOptions{})
			})
		}
		wg.Wait()
		makespan = env.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if makespan != 100*time.Millisecond {
		t.Fatalf("makespan = %v, want 100ms (10 serialized ops x 10ms)", makespan)
	}
}

func TestBufferStatsOccupancy(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		_, _ = b.Put(Item{Name: "a", PlanPos: at(0)})
		env.Sleep(time.Second) // 1s at occupancy 1
		_, _ = b.Put(Item{Name: "b", PlanPos: at(1)})
		env.Sleep(time.Second) // 1s at occupancy 2
		_, _ = b.Take(at(0), TakeOptions{})
		_, _ = b.Take(at(1), TakeOptions{})
		st := b.Stats()
		if st.Puts != 2 || st.Takes != 2 {
			t.Errorf("Puts/Takes = %d/%d, want 2/2", st.Puts, st.Takes)
		}
		// Time-weighted mean over 2s: (1*1 + 2*1)/2 = 1.5.
		if st.MeanOccupancy < 1.4 || st.MeanOccupancy > 1.6 {
			t.Errorf("MeanOccupancy = %v, want ≈1.5", st.MeanOccupancy)
		}
	})
}

func TestBufferValidation(t *testing.T) {
	env := conc.NewReal()
	for _, tc := range []struct {
		cap  int
		cost time.Duration
	}{{0, 0}, {-1, 0}, {1, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuffer(%d, %v) did not panic", tc.cap, tc.cost)
				}
			}()
			NewBuffer(env, tc.cap, tc.cost)
		}()
	}
}
