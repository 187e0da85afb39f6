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
	// start of its backing array, so a fill/drain cycle reuses the same
	// array every time.
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

// pop removes and returns the oldest item, zeroing its slot so the backing
// array does not pin what it referenced. Caller holds mu and has checked
// size() > 0.
func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.notFull.Signal()
	return v
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
	return q.pop(), true
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size() == 0 {
		return v, false
	}
	return q.pop(), true
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
