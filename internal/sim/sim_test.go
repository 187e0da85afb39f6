package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestSingleProcessSleepAdvancesClock(t *testing.T) {
	s := New()
	var at time.Duration
	s.Spawn("p", func(p *Process) {
		p.Sleep(5 * time.Second)
		at = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("final clock %v, want 5s", s.Now())
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := New()
	var order []string
	for _, d := range []time.Duration{30, 10, 20} {
		d := d
		s.SpawnAt(s.Now()+d*time.Millisecond, fmt.Sprintf("p%d", d), func(p *Process) {
			order = append(order, p.Name())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "p10,p20,p30"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestSimultaneousEventsRunFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Process) { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Process) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Process) { order = append(order, "b") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,b,a2" {
		t.Fatalf("order = %s, want a1,b,a2", got)
	}
}

func TestNegativeSleepClampedToYield(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("p", func(p *Process) {
		p.Sleep(-time.Second)
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || s.Now() != 0 {
		t.Fatalf("ran=%v now=%v, want true/0", ran, s.Now())
	}
}

func TestSpawnFromInsideProcess(t *testing.T) {
	s := New()
	var childAt time.Duration
	s.Spawn("parent", func(p *Process) {
		p.Sleep(time.Second)
		s.Spawn("child", func(c *Process) {
			c.Sleep(2 * time.Second)
			childAt = s.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 3*time.Second {
		t.Fatalf("child finished at %v, want 3s", childAt)
	}
}

func TestSpawnAtRejectsPast(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Process) { p.Sleep(time.Second) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnAt in the past did not panic")
		}
	}()
	s.SpawnAt(0, "late", func(*Process) {})
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		s.SpawnAt(s.Now()+d*time.Second, "p", func(p *Process) { fired = append(fired, s.Now()) })
	}
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock %v, want 2s", s.Now())
	}
	// Resuming runs the rest.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events after resume, want 4", len(fired))
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	s.Spawn("waiter", func(p *Process) {
		m.Lock()
		c.Wait() // nobody ever signals
		m.Unlock()
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "waiter") {
		t.Fatalf("deadlock report %q does not name the parked process", err)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("bomb", func(p *Process) { panic("boom") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bomb") {
		t.Fatalf("err = %v, want panic report naming process", err)
	}
}

func TestPanicAbortsRemainingProcesses(t *testing.T) {
	s := New()
	cleaned := false
	s.Spawn("victim", func(p *Process) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	s.SpawnAt(s.Now()+time.Second, "bomb", func(p *Process) { panic("boom") })
	if err := s.Run(); err == nil {
		t.Fatal("expected error")
	}
	if !cleaned {
		t.Fatal("victim's deferred cleanup did not run during shutdown")
	}
}

func TestExternalLockUncontended(t *testing.T) {
	s := New()
	m := s.NewMutex()
	m.Lock() // outside any process: allowed while free
	m.Unlock()
}

func TestExternalUnlockWithoutLockPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	defer func() {
		if recover() == nil {
			t.Fatal("external Unlock of free mutex did not panic")
		}
	}()
	m.Unlock()
}

func TestInternalLockWhileExternallyHeldPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	m.Lock() // external
	s.Spawn("p", func(p *Process) { m.Lock() })
	if err := s.Run(); err == nil {
		t.Fatal("in-process Lock of externally held mutex did not fail")
	}
}

func TestCondWaitOutsideProcessPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	defer func() {
		if recover() == nil {
			t.Fatal("Cond.Wait outside a process did not panic")
		}
	}()
	c.Wait()
}

func TestMutexMutualExclusion(t *testing.T) {
	s := New()
	m := s.NewMutex()
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			m.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond) // hold across a yield
			inside--
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms (serialized critical sections)", s.Now())
	}
}

func TestMutexFIFOOrder(t *testing.T) {
	s := New()
	m := s.NewMutex()
	var order []int
	s.Spawn("holder", func(p *Process) {
		m.Lock()
		p.Sleep(time.Second)
		m.Unlock()
	})
	for i := 0; i < 4; i++ {
		i := i
		s.SpawnAt(s.Now()+time.Duration(i+1)*time.Millisecond, fmt.Sprintf("w%d", i), func(p *Process) {
			m.Lock()
			order = append(order, i)
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("lock order %v, want FIFO", order)
		}
	}
}

func TestMutexDoubleLockPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	s.Spawn("p", func(p *Process) {
		m.Lock()
		m.Lock()
	})
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want double-lock panic", err)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	s.Spawn("p", func(p *Process) { m.Unlock() })
	if err := s.Run(); err == nil {
		t.Fatal("unlock of unlocked mutex did not fail")
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
			m.Lock()
			ready++
			c.Wait()
			woken++
			m.Unlock()
		})
	}
	s.SpawnAt(s.Now()+time.Second, "signaler", func(p *Process) {
		m.Lock()
		c.Signal()
		m.Unlock()
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock (two waiters left)", err)
	}
	if ready != 3 || woken != 1 {
		t.Fatalf("ready=%d woken=%d, want 3/1", ready, woken)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
			m.Lock()
			c.Wait()
			woken++
			m.Unlock()
		})
	}
	s.SpawnAt(s.Now()+time.Second, "b", func(p *Process) {
		m.Lock()
		c.Broadcast()
		m.Unlock()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestCondWaitWithoutMutexPanics(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	s.Spawn("p", func(p *Process) { c.Wait() })
	if err := s.Run(); err == nil {
		t.Fatal("Cond.Wait without mutex did not fail")
	}
}

func TestCondSignalNoWaitersIsNoop(t *testing.T) {
	s := New()
	m := s.NewMutex()
	c := s.NewCond(m)
	s.Spawn("p", func(p *Process) {
		c.Signal()
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroupReleasesAtZero(t *testing.T) {
	s := New()
	wg := s.NewWaitGroup()
	wg.Add(3)
	var doneAt time.Duration
	s.Spawn("waiter", func(p *Process) {
		wg.Wait()
		doneAt = s.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		s.SpawnAt(s.Now()+time.Duration(i)*time.Second, "worker", func(p *Process) { wg.Done() })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Second {
		t.Fatalf("waiter released at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroCounterDoesNotBlock(t *testing.T) {
	s := New()
	wg := s.NewWaitGroup()
	ok := false
	s.Spawn("p", func(p *Process) {
		wg.Wait()
		ok = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	s := New()
	wg := s.NewWaitGroup()
	s.Spawn("p", func(p *Process) { wg.Done() })
	if err := s.Run(); err == nil {
		t.Fatal("negative counter did not fail")
	}
}

func TestShutdownReleasesSleepers(t *testing.T) {
	s := New()
	cleaned := 0
	for i := 0; i < 4; i++ {
		s.Spawn("sleeper", func(p *Process) {
			defer func() { cleaned++ }()
			p.Sleep(time.Hour)
		})
	}
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if cleaned != 4 {
		t.Fatalf("cleaned = %d, want 4", cleaned)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Process) { p.Sleep(time.Hour) })
	_ = s.RunUntil(0)
	s.Shutdown()
	s.Shutdown() // must not panic or hang
}

func TestRunAfterShutdownFails(t *testing.T) {
	s := New()
	s.Shutdown()
	if err := s.Run(); err == nil {
		t.Fatal("Run after Shutdown succeeded")
	}
}

func TestSpawnNilBodyPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil body accepted")
		}
	}()
	s.Spawn("p", nil)
}

func TestWaitGroupWaitOutsideProcessPanics(t *testing.T) {
	s := New()
	wg := s.NewWaitGroup()
	wg.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("external Wait on nonzero counter did not panic")
		}
	}()
	wg.Wait()
}

func TestNewCondValidation(t *testing.T) {
	s := New()
	other := New()
	m := other.NewMutex()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-simulation cond accepted")
		}
	}()
	s.NewCond(m)
}

func TestProcessNameAndSim(t *testing.T) {
	s := New()
	var name string
	var owner *Simulation
	s.Spawn("worker-7", func(p *Process) {
		name = p.Name()
		owner = p.Sim()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if name != "worker-7" || owner != s {
		t.Fatalf("Name/Sim = %q/%p", name, owner)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical traces.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []string {
		var trace []string
		s := New()
		rng := rand.New(rand.NewSource(seed))
		m := s.NewMutex()
		c := s.NewCond(m)
		pending := 0
		for i := 0; i < 20; i++ {
			i := i
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			s.SpawnAt(s.Now()+d, fmt.Sprintf("p%d", i), func(p *Process) {
				p.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
				m.Lock()
				if i%3 == 0 {
					pending++
					c.Wait()
					trace = append(trace, fmt.Sprintf("woke:%d@%v", i, s.Now()))
				} else {
					if pending > 0 {
						pending--
						c.Signal()
					}
					trace = append(trace, fmt.Sprintf("ran:%d@%v", i, s.Now()))
				}
				m.Unlock()
			})
		}
		err := s.Run()
		if err != nil && !errors.Is(err, ErrDeadlock) {
			t.Fatal(err)
		}
		s.Shutdown()
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("nondeterministic traces:\n%v\n%v", a, b)
	}
}

// Property: the clock observed by processes never decreases, regardless of
// the sleep schedule.
func TestClockMonotoneProperty(t *testing.T) {
	prop := func(delays []int16) bool {
		s := New()
		last := time.Duration(-1)
		ok := true
		for _, d16 := range delays {
			d := time.Duration(int(d16)%1000+1000) * time.Microsecond
			s.SpawnAt(s.Now()+d, "p", func(p *Process) {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				p.Sleep(d / 2)
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCondMultiMutexDeterministic drives the shape the sharded buffer
// relies on — many processes blocking and waking across several
// independent mutex/cond pairs — and pins that repeated runs produce an
// identical event trace and finish at the identical virtual time. All
// lock, wait, and wakeup operations must consume zero virtual time; only
// the explicit sleeps advance the clock.
func TestMultiCondMultiMutexDeterministic(t *testing.T) {
	run := func() (string, time.Duration) {
		s := New()
		const shards = 4
		type cell struct {
			mu    *Mutex
			cond  *Cond
			ready bool
		}
		cells := make([]*cell, shards)
		for i := range cells {
			mu := s.NewMutex()
			cells[i] = &cell{mu: mu, cond: s.NewCond(mu)}
		}
		var trace []string
		var end time.Duration
		for i := 0; i < 12; i++ {
			i := i
			c := cells[i%shards]
			s.Spawn(fmt.Sprintf("waiter-%d", i), func(p *Process) {
				c.mu.Lock()
				for !c.ready {
					c.cond.Wait()
				}
				c.mu.Unlock()
				p.Sleep(time.Duration(i%3+1) * time.Millisecond)
				trace = append(trace, fmt.Sprintf("waiter-%d@%v", i, s.Now()))
				if s.Now() > end {
					end = s.Now()
				}
			})
		}
		s.Spawn("waker", func(p *Process) {
			p.Sleep(10 * time.Millisecond)
			for _, c := range cells {
				c.mu.Lock()
				c.ready = true
				c.cond.Broadcast()
				c.mu.Unlock()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(trace), end
	}
	trace1, end1 := run()
	for i := 0; i < 3; i++ {
		trace2, end2 := run()
		if trace2 != trace1 || end2 != end1 {
			t.Fatalf("run %d diverged:\n%s (end %v)\nvs\n%s (end %v)", i+2, trace2, end2, trace1, end1)
		}
	}
	if end1 != 13*time.Millisecond {
		t.Fatalf("end = %v, want 13ms (10ms wake + max 3ms sleep; sync ops are zero-time)", end1)
	}
}
