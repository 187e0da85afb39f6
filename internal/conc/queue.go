package conc

import "errors"

// ErrClosed is returned by Queue.Put after Close.
var ErrClosed = errors.New("conc: queue closed")

// Queue is a FIFO queue usable from any Env. A capacity of zero means
// unbounded; otherwise Put blocks while the queue is full. Get blocks while
// the queue is empty. Close wakes all blocked callers: pending items can
// still be drained, after which Get reports !ok.
type Queue[T any] struct {
	env      Env
	mu       Mutex
	notEmpty Cond
	notFull  Cond
	// The queued items are items[head:]. Popping advances head and zeroes
	// the slot instead of re-slicing the front away: a re-sliced slice can
	// only ever grow by reallocating, and its abandoned prefix keeps every
	// popped item reachable until then. A queue that drains rewinds to the
	// start of its backing array, so a fill/drain cycle (one epoch's plan)
	// reuses the same array every time.
	items    []T
	head     int
	capacity int
	closed   bool
}

// NewQueue returns a queue bound to env with the given capacity (0 =
// unbounded).
func NewQueue[T any](env Env, capacity int) *Queue[T] {
	if capacity < 0 {
		panic("conc: negative queue capacity")
	}
	q := &Queue[T]{env: env, capacity: capacity}
	q.mu = env.NewMutex()
	q.notEmpty = env.NewCond(q.mu)
	q.notFull = env.NewCond(q.mu)
	return q
}

// Put appends v, blocking while the queue is at capacity. It returns
// ErrClosed if the queue is (or becomes) closed while waiting.
func (q *Queue[T]) Put(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.capacity > 0 && q.size() >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	if len(q.items) == cap(q.items) && q.head >= len(q.items)/2 && q.head > 0 {
		// Full array, at least half of it already popped: slide the live
		// items down instead of doubling. Moving at most as many items as
		// were popped since the last slide keeps Put amortized O(1).
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.notEmpty.Signal()
	return nil
}

// size is the number of queued items. Caller holds mu.
func (q *Queue[T]) size() int { return len(q.items) - q.head }

// pop removes the n oldest items, zeroing their slots so the backing array
// does not pin what they referenced. Caller holds mu and has checked
// n <= size().
func (q *Queue[T]) pop(n int) {
	clear(q.items[q.head : q.head+n])
	q.head += n
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false once the queue is closed and drained.
func (q *Queue[T]) Get() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size() == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.size() == 0 {
		return v, false
	}
	v = q.items[q.head]
	q.pop(1)
	q.notFull.Signal()
	return v, true
}

// GetOr is Get with an interruptible wait: while the queue is empty, stop
// is consulted (on entry and after every wakeup) and a true return
// abandons the wait with stopped=true instead of parking until the next
// item. Wake forces every blocked getter to re-evaluate its stop
// condition. stop runs under the queue lock and must not call back into
// this queue; it may acquire other locks, which fixes the lock order
// "queue before callee" for those locks.
func (q *Queue[T]) GetOr(stop func() bool) (v T, ok, stopped bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size() == 0 && !q.closed {
		if stop != nil && stop() {
			return v, false, true
		}
		q.notEmpty.Wait()
	}
	if q.size() == 0 {
		return v, false, false
	}
	v = q.items[q.head]
	q.pop(1)
	q.notFull.Signal()
	return v, true, false
}

// GetRunOr is GetOr extended to drain a FIFO run: it blocks for the first
// item exactly like GetOr, then greedily appends up to max-1 further items
// while same(first, candidate) holds, preserving FIFO order (the run is
// always a contiguous prefix of the queue — the first non-matching item
// stays queued, so ordering across runs is untouched). Items are appended
// to out (caller-owned scratch, may be non-empty). same runs under the
// queue lock with the same constraints as stop: it must not call back into
// this queue, and any locks it takes order "queue before callee".
func (q *Queue[T]) GetRunOr(stop func() bool, max int, same func(first, candidate T) bool, out []T) (run []T, ok, stopped bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size() == 0 && !q.closed {
		if stop != nil && stop() {
			return out, false, true
		}
		q.notEmpty.Wait()
	}
	if q.size() == 0 {
		return out, false, false
	}
	live := q.items[q.head:]
	first := live[0]
	out = append(out, first)
	taken := 1
	for taken < max && taken < len(live) && same(first, live[taken]) {
		out = append(out, live[taken])
		taken++
	}
	q.pop(taken)
	if taken > 1 {
		q.notFull.Broadcast()
	} else {
		q.notFull.Signal()
	}
	return out, true, false
}

// Wake wakes every blocked getter so GetOr callers re-evaluate their stop
// condition. Plain Get callers just re-check emptiness and park again.
func (q *Queue[T]) Wake() {
	q.mu.Lock()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
}

// DropWhere removes every queued item matching pred, preserving the order
// of the rest, and reports how many were removed. Freed capacity wakes
// blocked putters. pred runs under the queue lock and must not call back
// into the queue.
func (q *Queue[T]) DropWhere(pred func(T) bool) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Survivors are compacted to the start of the array (the popped prefix
	// is already zeroed), which also rewinds head.
	kept := q.items[:0]
	for _, it := range q.items[q.head:] {
		if !pred(it) {
			kept = append(kept, it)
		}
	}
	n := q.size() - len(kept)
	// Zero the tail so dropped items don't pin referenced memory through
	// the backing array.
	clear(q.items[len(kept):])
	q.items, q.head = kept, 0
	if n > 0 {
		q.notFull.Broadcast()
	}
	return n
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size() == 0 {
		return v, false
	}
	v = q.items[q.head]
	q.pop(1)
	q.notFull.Signal()
	return v, true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size()
}

// Capacity reports the current capacity (0 = unbounded).
func (q *Queue[T]) Capacity() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capacity
}

// SetCapacity adjusts the capacity at runtime (0 = unbounded). Growing (or
// unbounding) the queue wakes blocked producers; shrinking takes effect as
// consumers drain.
func (q *Queue[T]) SetCapacity(capacity int) {
	if capacity < 0 {
		panic("conc: negative queue capacity")
	}
	q.mu.Lock()
	if capacity == 0 || capacity > q.capacity {
		q.notFull.Broadcast()
	}
	q.capacity = capacity
	q.mu.Unlock()
}

// Close marks the queue closed and wakes every blocked producer and
// consumer. It is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}
