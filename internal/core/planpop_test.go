package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// The plan manager's pop, driven directly under both environments: the
// wait a producer parks in, what ends it, and which positions it returns.

// forEachEnv runs body once under the simulator and once on real threads
// (sleeps scaled down), as subtests "sim" and "real".
func forEachEnv(t *testing.T, body func(t *testing.T, env conc.Env)) {
	t.Run("sim", func(t *testing.T) {
		s := sim.New()
		env := conc.NewSimEnv(s)
		s.Spawn("test-body", func(*sim.Process) { body(t, env) })
		if err := s.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
	})
	t.Run("real", func(t *testing.T) {
		env := conc.NewScaledReal(1000)
		done := make(chan struct{})
		env.Go("test-body", func() {
			defer close(done)
			body(t, env)
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("real-env test body timed out")
		}
		env.Join()
	})
}

// awaitPopParked waits until n producers are parked in pop, failing t
// after a second of env time.
func awaitPopParked(t *testing.T, env conc.Env, pm *planManager, n int) {
	t.Helper()
	for i := 0; ; i++ {
		pm.mu.Lock()
		parked := pm.parked
		pm.mu.Unlock()
		if parked >= n {
			return
		}
		if i == 1000 {
			t.Fatalf("%d producers parked in pop, want %d", parked, n)
		}
		env.Sleep(time.Millisecond)
	}
}

// popResult is what one pop returned, handed from a parked producer back
// to the test body.
type popResult struct {
	run         []PlanClaim
	ok, stopped bool
}

// popAsync pops one position on its own process; the result is sent on
// results (buffered by the caller) once the pop returns.
func popAsync(env conc.Env, pm *planManager, stop func() bool, results chan<- popResult) {
	env.Go("producer", func() {
		run, _, ok, stopped := pm.pop(nil, 1, nil, stop)
		results <- popResult{run, ok, stopped}
	})
}

// await receives one pop result, yielding to the simulator while none has
// arrived, and fails t after a second of env time.
func await(t *testing.T, env conc.Env, results <-chan popResult) popResult {
	t.Helper()
	for i := 0; ; i++ {
		select {
		case r := <-results:
			return r
		default:
		}
		if i == 1000 {
			t.Fatal("no pop returned")
		}
		env.Sleep(time.Millisecond)
	}
}

// settled fails t if a pop result arrives within a few milliseconds.
func settled(t *testing.T, env conc.Env, results <-chan popResult, why string) {
	t.Helper()
	env.Sleep(5 * time.Millisecond)
	select {
	case r := <-results:
		t.Fatalf("pop returned %+v %s", r, why)
	default:
	}
}

func never() bool { return false }

// TestPlanPopStopPredicate: a producer parked on an empty plan store stays
// parked while its stop predicate is false, and a wake after the predicate
// turns true ends the wait as stopped, with nothing popped.
func TestPlanPopStopPredicate(t *testing.T) {
	forEachEnv(t, func(t *testing.T, env conc.Env) {
		pm := newPlanManager(env)
		defer pm.close() // releases the producer should the test fail
		var stop atomic.Bool
		results := make(chan popResult, 1)
		popAsync(env, pm, stop.Load, results)
		awaitPopParked(t, env, pm, 1)
		pm.wake() // a wake with the predicate still false parks it again
		settled(t, env, results, "before stop was requested")
		stop.Store(true)
		pm.wake()
		if r := await(t, env, results); r.ok || !r.stopped || len(r.run) != 0 {
			t.Fatalf("pop = %+v, want stopped with nothing popped", r)
		}
	})
}

// TestPlanPopHeldRegistration: a held registration — a plan the socket
// server answers before its producers start — leaves a producer parked on
// an empty store parked, and the wake that follows the reply hands it the
// plan's first position.
func TestPlanPopHeldRegistration(t *testing.T) {
	forEachEnv(t, func(t *testing.T, env conc.Env) {
		pm := newPlanManager(env)
		defer pm.close()
		results := make(chan popResult, 1)
		popAsync(env, pm, never, results)
		awaitPopParked(t, env, pm, 1)
		if _, err := pm.register([]string{"a", "b"}, nil, true); err != nil {
			t.Fatal(err)
		}
		settled(t, env, results, "before the held registration's wake")
		pm.wake()
		if r := await(t, env, results); !r.ok || len(r.run) != 1 || r.run[0].Name != "a" {
			t.Fatalf("pop = %+v, want the plan's first position", r)
		}
	})
}

// TestPlanPopDeliversBeforeStop: a true stop predicate never abandons a
// position that is there to pop, and positions registered before close
// are still popped after it; only then does pop report the store drained.
func TestPlanPopDeliversBeforeStop(t *testing.T) {
	forEachEnv(t, func(t *testing.T, env conc.Env) {
		pm := newPlanManager(env)
		id, err := pm.register([]string{"a", "b"}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		always := func() bool { return true }
		run, _, ok, stopped := pm.pop(nil, 1, nil, always)
		if !ok || stopped || len(run) != 1 || run[0] != (PlanClaim{Name: "a", PlanPos: PlanPos{Epoch: id}}) {
			t.Fatalf("pop = (%v, ok=%v, stopped=%v), want a at index 0", run, ok, stopped)
		}
		pm.close()
		if _, err := pm.register([]string{"c"}, nil, false); err != ErrClosed {
			t.Fatalf("register after close = %v, want ErrClosed", err)
		}
		run, _, ok, stopped = pm.pop(run[:0], 1, nil, always)
		if !ok || stopped || len(run) != 1 || run[0].Name != "b" || run[0].Index != 1 {
			t.Fatalf("pop after close = (%v, ok=%v, stopped=%v), want b at index 1", run, ok, stopped)
		}
		run, _, ok, stopped = pm.pop(run[:0], 1, nil, always)
		if ok || stopped || len(run) != 0 {
			t.Fatalf("pop on a drained, closed store = (%v, ok=%v, stopped=%v), want drained", run, ok, stopped)
		}
	})
}

// TestPlanPopSkipsCancelledEpoch: a cancelled epoch's unpopped positions
// are never popped and stop counting as queued; the next live epoch's
// positions follow at once.
func TestPlanPopSkipsCancelledEpoch(t *testing.T) {
	forEachEnv(t, func(t *testing.T, env conc.Env) {
		pm := newPlanManager(env)
		first, _ := pm.register([]string{"a", "b", "c"}, nil, false)
		second, _ := pm.register([]string{"x", "y"}, nil, false)
		if n := pm.unpopped(); n != 5 {
			t.Fatalf("unpopped = %d, want 5", n)
		}
		run, _, _, _ := pm.pop(nil, 1, nil, never)
		if run[0].Name != "a" || run[0].Epoch != first {
			t.Fatalf("first pop = %v, want a of epoch %d", run, first)
		}
		if _, err := pm.cancel(first); err != nil {
			t.Fatal(err)
		}
		if n := pm.unpopped(); n != 2 {
			t.Fatalf("unpopped after cancel = %d, want 2 (epoch %d only)", n, second)
		}
		var got []PlanClaim
		for i := 0; i < 2; i++ {
			got, _, _, _ = pm.pop(got, 1, nil, never)
		}
		want := []PlanClaim{{Name: "x", PlanPos: PlanPos{Epoch: second}}, {Name: "y", PlanPos: PlanPos{Epoch: second, Index: 1}}}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("pops after cancel = %v, want %v", got, want)
		}
		if n := pm.unpopped(); n != 0 {
			t.Fatalf("unpopped after draining = %d, want 0", n)
		}
	})
}

// TestPlanPopWakesParkedProducers: registration wakes one parked producer
// per position, so a one-name plan releases one of two parked producers
// and a second registration the other; each gets its epoch's position.
func TestPlanPopWakesParkedProducers(t *testing.T) {
	forEachEnv(t, func(t *testing.T, env conc.Env) {
		pm := newPlanManager(env)
		defer pm.close() // releases the producers should the test fail
		results := make(chan popResult, 2)
		popAsync(env, pm, never, results)
		popAsync(env, pm, never, results)
		awaitPopParked(t, env, pm, 2)
		for _, name := range []string{"p", "q"} {
			id, err := pm.register([]string{name}, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			r := await(t, env, results)
			if !r.ok || r.stopped || len(r.run) != 1 || r.run[0].Name != name || r.run[0].Epoch != id {
				t.Fatalf("woken pop = %+v, want %s of epoch %d", r, name, id)
			}
			settled(t, env, results, "with nothing left to pop")
		}
	})
}

// TestPlanPopRunRules: a run is one epoch's next positions in plan order,
// ended by the run budget, by the first name the predicate rejects, or by
// the end of the epoch, whichever comes first; it is appended to the
// caller's scratch and carries the epoch's submission time.
func TestPlanPopRunRules(t *testing.T) {
	sameShard := func(first, next string) bool { return first[0] == next[0] }
	cases := []struct {
		name  string
		max   int
		plans [][]string
		want  []string // names of the first run
	}{
		{"budget", 2, [][]string{{"a1", "a2", "a3"}}, []string{"a1", "a2"}},
		{"predicate", 8, [][]string{{"a1", "a2", "b1", "a3"}}, []string{"a1", "a2"}},
		{"epoch-end", 8, [][]string{{"a1", "a2"}, {"a3", "a4"}}, []string{"a1", "a2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(env conc.Env) {
				pm := newPlanManager(env)
				env.Sleep(3 * time.Millisecond)
				var first EpochID
				for i, p := range tc.plans {
					id, err := pm.register(p, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						first = id
					}
				}
				scratch := make([]PlanClaim, 1, 16)
				scratch[0] = PlanClaim{Name: "kept"}
				run, at, ok, _ := pm.pop(scratch, tc.max, sameShard, never)
				if !ok || at != 3*time.Millisecond {
					t.Fatalf("pop ok=%v at=%v, want ok at the 3ms submission", ok, at)
				}
				if &run[0] != &scratch[0] || run[0].Name != "kept" {
					t.Fatalf("run %v did not extend the caller's scratch", run)
				}
				run = run[1:]
				if len(run) != len(tc.want) {
					t.Fatalf("run %v, want %v", run, tc.want)
				}
				for i, c := range run {
					if c.Name != tc.want[i] || c.Epoch != first || c.Index != i {
						t.Fatalf("run %v, want %v at indexes 0.. of epoch %d", run, tc.want, first)
					}
				}
			})
		})
	}
}
