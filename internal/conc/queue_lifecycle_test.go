package conc

import "testing"

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
		for i := 0; i < epoch; i++ {
			var p *int
			var ok bool
			if i%2 == 0 { // every pop entry point
				p, ok = q.Get()
			} else {
				p, ok = q.TryGet()
			}
			if !ok {
				t.Fatalf("queue ran dry at %d", i)
			}
			if *p != i {
				t.Fatalf("item %d = %d (FIFO broken)", i, *p)
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
