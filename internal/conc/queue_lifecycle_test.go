package conc

import (
	"testing"
	"time"
)

func TestQueueGetOrStopPredicate(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			h.run(t, func(env Env) {
				q := NewQueue[int](env, 0)
				mu := env.NewMutex()
				stop := false
				var gotStopped bool
				done := env.NewCond(mu)
				finished := false
				env.Go("waiter", func() {
					_, ok, stopped := q.GetOr(func() bool {
						mu.Lock()
						defer mu.Unlock()
						return stop
					})
					mu.Lock()
					gotStopped = stopped && !ok
					finished = true
					done.Broadcast()
					mu.Unlock()
				})
				env.Sleep(5 * time.Millisecond)
				mu.Lock()
				if finished {
					mu.Unlock()
					t.Fatal("GetOr returned before stop was requested")
				}
				stop = true
				mu.Unlock()
				q.Wake()
				mu.Lock()
				for !finished {
					done.Wait()
				}
				mu.Unlock()
				if !gotStopped {
					t.Fatal("GetOr = ok, want stopped")
				}
			})
		})
	}
}

func TestQueueGetOrDeliversItems(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			h.run(t, func(env Env) {
				q := NewQueue[int](env, 0)
				if err := q.Put(7); err != nil {
					t.Fatal(err)
				}
				// A true stop predicate must not eat an available item.
				v, ok, stopped := q.GetOr(func() bool { return true })
				if !ok || stopped || v != 7 {
					t.Fatalf("GetOr = (%d, %v, %v), want (7, true, false)", v, ok, stopped)
				}
				// Nil predicate degrades to plain Get on a closed queue.
				q.Close()
				_, ok, stopped = q.GetOr(nil)
				if ok || stopped {
					t.Fatalf("GetOr on closed queue = (ok=%v, stopped=%v), want drained", ok, stopped)
				}
			})
		})
	}
}

func TestQueueDropWhere(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			h.run(t, func(env Env) {
				q := NewQueue[int](env, 0)
				for i := 1; i <= 6; i++ {
					if err := q.Put(i); err != nil {
						t.Fatal(err)
					}
				}
				if n := q.DropWhere(func(v int) bool { return v%2 == 0 }); n != 3 {
					t.Fatalf("DropWhere removed %d, want 3", n)
				}
				for _, want := range []int{1, 3, 5} {
					v, ok := q.Get()
					if !ok || v != want {
						t.Fatalf("Get = (%d, %v), want (%d, true)", v, ok, want)
					}
				}
				if q.Len() != 0 {
					t.Fatalf("Len = %d after drain, want 0", q.Len())
				}
			})
		})
	}
}

func TestQueueDropWhereUnblocksProducer(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			h.run(t, func(env Env) {
				q := NewQueue[int](env, 2)
				_ = q.Put(1)
				_ = q.Put(2)
				mu := env.NewMutex()
				cond := env.NewCond(mu)
				landed := false
				env.Go("producer", func() {
					_ = q.Put(3) // blocks: queue full
					mu.Lock()
					landed = true
					cond.Broadcast()
					mu.Unlock()
				})
				env.Sleep(time.Millisecond)
				if n := q.DropWhere(func(v int) bool { return v == 1 }); n != 1 {
					t.Fatalf("DropWhere removed %d, want 1", n)
				}
				mu.Lock()
				for !landed {
					cond.Wait()
				}
				mu.Unlock()
				for _, want := range []int{2, 3} {
					v, ok := q.Get()
					if !ok || v != want {
						t.Fatalf("Get = (%d, %v), want (%d, true)", v, ok, want)
					}
				}
			})
		})
	}
}

// TestQueueReusesBackingArray pins the fix for the queue that regrew and
// pinned its backing array every epoch: popping by re-slicing the front
// away left no capacity to reuse, so each epoch's Put-all doubled a fresh
// array from scratch while the old one kept every popped item reachable.
func TestQueueReusesBackingArray(t *testing.T) {
	const epoch = 1000
	q := NewQueue[*int](NewReal(), 0)
	fillDrain := func() {
		for i := 0; i < epoch; i++ {
			v := i
			if err := q.Put(&v); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]*int, 0, 7)
		for i := 0; i < epoch; {
			var ok bool
			switch i % 3 { // every pop entry point
			case 0:
				_, ok = q.Get()
				i++
			case 1:
				_, ok = q.TryGet()
				i++
			default:
				out, ok, _ = q.GetRunOr(nil, 7, func(_, _ *int) bool { return true }, out[:0])
				for j, p := range out {
					if *p != i+j {
						t.Fatalf("run item %d = %d, want %d (FIFO broken)", j, *p, i+j)
					}
				}
				i += len(out)
			}
			if !ok {
				t.Fatalf("queue ran dry at %d", i)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("Len = %d after drain", q.Len())
		}
	}
	fillDrain()
	want := cap(q.items)
	for e := 0; e < 10; e++ {
		fillDrain()
		if got := cap(q.items); got != want {
			t.Fatalf("epoch %d: backing array cap %d, want %d (regrown)", e, got, want)
		}
	}
	for i, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}

	// Steady state with a standing backlog: the head slides, the array
	// stops growing, and a Put+Get pair allocates nothing.
	v := 0
	for i := 0; i < 100; i++ {
		_ = q.Put(&v)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		_ = q.Put(&v)
		_, _ = q.Get()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Put+Get allocates %.2f/op, want 0", allocs)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want the standing 100", q.Len())
	}
}

// TestQueueDropWhereAfterPops checks DropWhere over a queue whose head has
// advanced: survivors keep FIFO order and the count covers live items only.
func TestQueueDropWhereAfterPops(t *testing.T) {
	q := NewQueue[int](NewReal(), 0)
	for i := 0; i < 10; i++ {
		_ = q.Put(i)
	}
	for i := 0; i < 3; i++ {
		_, _ = q.Get()
	}
	if n := q.DropWhere(func(v int) bool { return v%2 == 0 }); n != 3 { // 4, 6, 8
		t.Fatalf("DropWhere removed %d, want 3", n)
	}
	for _, want := range []int{3, 5, 7, 9} {
		if got, ok := q.TryGet(); !ok || got != want {
			t.Fatalf("TryGet = %d, %v; want %d", got, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}
