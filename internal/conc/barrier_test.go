package conc

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/sim"
)

func TestBarrierReleasesTogether(t *testing.T) {
	s := sim.New()
	env := NewSimEnv(s)
	var released []time.Duration
	s.Spawn("driver", func(*sim.Process) {
		b := NewBarrier(env, 3)
		wg := env.NewWaitGroup()
		wg.Add(3)
		for i := 0; i < 3; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func() {
				defer wg.Done()
				env.Sleep(time.Duration(i+1) * time.Second) // staggered arrivals
				if !b.Await() {
					t.Error("barrier broken unexpectedly")
				}
				released = append(released, env.Now())
			})
		}
		wg.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range released {
		if at != 3*time.Second {
			t.Fatalf("released at %v, want all at 3s (last arrival)", at)
		}
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	s := sim.New()
	env := NewSimEnv(s)
	rounds := make([]int, 2)
	s.Spawn("driver", func(*sim.Process) {
		b := NewBarrier(env, 2)
		wg := env.NewWaitGroup()
		wg.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func() {
				defer wg.Done()
				for r := 0; r < 5; r++ {
					env.Sleep(time.Duration(i) * time.Millisecond)
					if !b.Await() {
						t.Error("broken")
						return
					}
					rounds[i]++
				}
			})
		}
		wg.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds[0] != 5 || rounds[1] != 5 {
		t.Fatalf("rounds = %v, want 5/5", rounds)
	}
}

func TestBarrierBreakReleasesWaiters(t *testing.T) {
	s := sim.New()
	env := NewSimEnv(s)
	var result bool
	s.Spawn("driver", func(*sim.Process) {
		b := NewBarrier(env, 2)
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("waiter", func() {
			defer wg.Done()
			result = b.Await()
		})
		env.Sleep(time.Second)
		b.Break()
		wg.Wait()
		if !b.Broken() {
			t.Error("Broken() = false after Break")
		}
		// Future waiters fail immediately.
		if b.Await() {
			t.Error("Await succeeded on broken barrier")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if result {
		t.Fatal("broken barrier reported success")
	}
}

// TestBarrierBreakAfterRelease: a Break that lands after a generation was
// released, but before its waiter wakes, does not take the release back.
func TestBarrierBreakAfterRelease(t *testing.T) {
	s := sim.New()
	env := NewSimEnv(s)
	var waiter, last bool
	s.Spawn("driver", func(*sim.Process) {
		b := NewBarrier(env, 2)
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go("waiter", func() {
			defer wg.Done()
			waiter = b.Await()
		})
		env.Sleep(time.Second)
		last = b.Await() // releases the waiter's generation
		b.Break()        // before the waiter runs again
		wg.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !last || !waiter {
		t.Fatalf("Await = %v for the releasing party and %v for the released one, want both true", last, waiter)
	}
}

func TestBarrierSingleParty(t *testing.T) {
	env := NewReal()
	b := NewBarrier(env, 1)
	for i := 0; i < 3; i++ {
		if !b.Await() {
			t.Fatal("single-party barrier blocked")
		}
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero parties")
		}
	}()
	NewBarrier(NewReal(), 0)
}

func TestBarrierRealEnv(t *testing.T) {
	env := NewReal()
	b := NewBarrier(env, 4)
	done := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- b.Await() }()
	}
	for i := 0; i < 4; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("barrier broken")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("barrier hung")
		}
	}
}
