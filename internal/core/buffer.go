// Package core implements the PRISMA data plane (paper §IV): a parallel
// data-prefetching optimization object built from a FIFO filename queue, a
// bounded in-memory buffer with the paper's evict-on-read policy, and a
// stage that exposes the POSIX-style read interception point and the
// control interface consumed by the control plane.
package core

import (
	"errors"
	"sort"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// ErrClosed is returned by buffer and stage operations after shutdown.
var ErrClosed = errors.New("core: closed")

// ErrNotParked is returned by a no-wait take (TakeOptions.NoWait) that
// found nothing it may take right now.
var ErrNotParked = errors.New("core: sample not parked")

// MaxBufferShards bounds the shard count of a Buffer; beyond this, shard
// bookkeeping costs more than the contention it removes.
const MaxBufferShards = 512

// Item is one prefetched sample, or a producer-side read failure destined
// for the consumer that requests the file.
type Item struct {
	Name  string
	Size  int64
	Bytes []byte // nil under modeled backends
	Err   error  // non-nil when the producer's read failed

	// Ref is the pooled lease backing Bytes (nil when pooling is off). The
	// item's holder owns one reference: Put transfers it into the buffer,
	// the evicting Take transfers it to the consumer, and any path that
	// discards the item instead must call Release (DESIGN.md §11).
	Ref *mempool.Ref

	// PlanPos is the plan entry this sample was produced for, and the
	// buffer's key for it: two entries of one name are two items. Its
	// Epoch is zero when the item did not come through the plan (then
	// Index is the caller's own sequence number); a cancelled epoch's
	// items are rejected at Put and dropped from the buffer (DESIGN.md
	// §12).
	PlanPos

	// Ctx is the sample-lifecycle trace context assigned at plan
	// submission (zero when unsampled or when the item did not come
	// through the stage's producers).
	Ctx obs.Ctx
	// ReadStart and ReadEnd bound the producer's backend read on the env
	// clock; PopDelay is how long this sample's FIFO pop was delayed by
	// its producer parking on a full shard (the previous Put's blocked
	// time). Together they let Take split a consumer's wait into its
	// storage-caused and buffer-capacity-caused portions — the always-on
	// inputs of the latency-attribution report.
	ReadStart time.Duration
	ReadEnd   time.Duration
	PopDelay  time.Duration
}

// Release drops the item's pooled payload lease, if any. Safe (no-op) on
// unpooled or error items; idempotent on the same Item value.
func (it *Item) Release() {
	if it.Ref != nil {
		it.Ref.Release()
		it.Ref = nil
		it.Bytes = nil
	}
}

// Buffer is the bounded in-memory sample buffer. Semantics follow the
// paper: it stores at most N samples; "a training file is stored in the
// buffer whenever it is read by a producer and is evicted when a consumer
// requests it". Samples are parked by plan position, not by name, so a
// plan that names a file twice parks two copies. Take blocks until the
// sample of its position arrives; Put blocks while the buffer is full —
// except when a consumer is already waiting for that exact position, which
// must be admitted to avoid a full-buffer/ordering deadlock between
// out-of-order producer completions and in-order consumers.
//
// The buffer is split into K independently locked shards; position i of
// epoch e lives in shard (i + e) mod K, so any window of the plan spreads
// evenly over them. The paper's single shared buffer (§V-B) serializes
// every producer and consumer behind one lock — the PyTorch 8+ worker
// synchronization bottleneck; sharding keeps the AccessCost serialization
// *within* a shard (still modeling the per-operation cost) while letting
// operations on different shards proceed concurrently. The global capacity
// budget N is partitioned across shards (shard i gets ⌈N/K⌉ or ⌊N/K⌋, the
// partition summing exactly to N), so bounded-N and evict-on-read are
// preserved. K == 1 reproduces the single-buffer behavior exactly.
//
// AccessCost models the serialized critical-section cost of one buffer
// operation (lock + copy + IPC handoff). It is the knob behind the paper's
// observed PyTorch 8+ worker synchronization bottleneck (§V-B).
type Buffer struct {
	env        conc.Env
	accessCost time.Duration
	created    time.Duration
	tracer     *obs.Tracer                // set before traffic via SetTracer; nil-safe
	waitHist   *metrics.BucketedHistogram // distribution of consumer Take waits (atomic)

	// epochCancelled reports whether a plan epoch was cancelled. Set once
	// before traffic (SetEpochCancelled); nil means no epoch awareness.
	// Called under a shard lock, so the callee must be a leaf lock — the
	// plan manager is.
	epochCancelled func(EpochID) bool
	// claimAt accounts a no-wait take's plan entry as claimed and
	// delivered, or refuses it. Set once before traffic (SetClaimAt) and
	// called under a shard lock, like epochCancelled.
	claimAt func(PlanPos) bool

	// shards is fixed at construction, so routing a position takes no lock.
	shards []*bufShard

	// cfgMu guards the capacity budget and the closed flag. Lock order is
	// cfgMu before shard.mu; no code path acquires cfgMu while holding a
	// shard lock.
	cfgMu    conc.Mutex
	capacity int
	closed   bool
}

// bufShard is one independently synchronized slice of the buffer. All
// fields are guarded by mu; the counters are plain integers (not
// metrics.Counter) precisely so Stats can snapshot a shard consistently
// under one lock acquisition.
type bufShard struct {
	mu      conc.Mutex
	notFull conc.Cond
	arrived conc.Cond

	idx      int // position in the shard set (span annotation)
	capacity int
	items    map[PlanPos]Item
	waiting  map[PlanPos]int // positions consumers are currently blocked on
	closed   bool

	puts, takes                    int64
	consumerWaitNS, producerWaitNS int64
	waitStorageNS, waitBufferNS    int64 // consumer-wait attribution splits

	// Occupancy, accrued under mu with the clock read there: occNS is
	// Σ len(items)×duration up to occSince.
	occNS    int64
	occSince time.Duration
}

// NewBuffer returns an empty single-shard buffer with the given initial
// capacity N >= 1 — the paper's shared-buffer semantics, bit for bit.
func NewBuffer(env conc.Env, capacity int, accessCost time.Duration) *Buffer {
	return NewShardedBuffer(env, capacity, accessCost, 1)
}

// NewShardedBuffer returns an empty buffer with capacity N >= 1 split over
// the given number of shards, fixed for the buffer's life. The shard count
// is clamped to [1, N] (every shard starts with at least one capacity slot)
// and to MaxBufferShards; values < 1 select a single shard.
func NewShardedBuffer(env conc.Env, capacity int, accessCost time.Duration, shards int) *Buffer {
	if capacity < 1 {
		panic("core: buffer capacity must be >= 1")
	}
	if accessCost < 0 {
		panic("core: negative buffer access cost")
	}
	b := &Buffer{
		env:        env,
		accessCost: accessCost,
		created:    env.Now(),
		capacity:   capacity,
		waitHist:   metrics.NewBucketedHistogram(env, nil),
	}
	b.cfgMu = env.NewMutex()
	b.shards = newShardSet(env, clampShards(shards, capacity), capacity, b.created)
	return b
}

// clampShards forces a requested shard count into [1, min(capacity,
// MaxBufferShards)].
func clampShards(k, capacity int) int {
	if k < 1 {
		k = 1
	}
	if k > capacity {
		k = capacity
	}
	if k > MaxBufferShards {
		k = MaxBufferShards
	}
	return k
}

// newShardSet builds k empty shards with the capacity budget partitioned
// across them (the first capacity%k shards take the remainder).
func newShardSet(env conc.Env, k, capacity int, now time.Duration) []*bufShard {
	caps := partitionCapacity(capacity, k)
	out := make([]*bufShard, k)
	for i := range out {
		s := &bufShard{
			idx:      i,
			capacity: caps[i],
			items:    make(map[PlanPos]Item),
			waiting:  make(map[PlanPos]int),
			occSince: now,
		}
		s.mu = env.NewMutex()
		s.notFull = env.NewCond(s.mu)
		s.arrived = env.NewCond(s.mu)
		out[i] = s
	}
	return out
}

// partitionCapacity splits capacity into k per-shard budgets summing
// exactly to capacity. With capacity < k the last k − capacity budgets are
// zero: those shards admit only a sample a consumer is already waiting for.
func partitionCapacity(capacity, k int) []int {
	base, rem := capacity/k, capacity%k
	caps := make([]int, k)
	for i := range caps {
		caps[i] = base
		if i < rem {
			caps[i]++
		}
	}
	return caps
}

// route resolves the shard of a position: round robin over the plan,
// shifted by one shard per epoch.
func (b *Buffer) route(pos PlanPos) *bufShard {
	return b.shards[(uint64(pos.Index)+uint64(pos.Epoch))%uint64(len(b.shards))]
}

// accrue credits the occupancy held since the last change up to now; call
// it before every change to the item count. The caller holds s.mu and read
// now under it, so the shard's transitions apply in timestamp order.
func (s *bufShard) accrue(now time.Duration) {
	s.occNS += int64(len(s.items)) * int64(now-s.occSince)
	s.occSince = now
}

// SetTracer attaches the tracer used for buffer-park and consumer-wait
// spans. Call before the buffer sees traffic (NewStage does with
// StageConfig.Tracer; exported for callers driving a bare buffer, e.g. the
// contention benchmarks).
func (b *Buffer) SetTracer(t *obs.Tracer) { b.tracer = t }

// SetEpochCancelled installs the epoch-cancellation predicate consulted by
// Put (reject items of cancelled epochs) and Take (wake consumers
// blocked on them). Call before the buffer sees traffic; NewStage wires
// its plan manager here.
func (b *Buffer) SetEpochCancelled(f func(EpochID) bool) { b.epochCancelled = f }

// SetClaimAt installs the positional-claim hook a no-wait take of a plan
// position consults once it has found the sample parked. Call before the
// buffer sees traffic; NewStage wires its plan manager here.
func (b *Buffer) SetClaimAt(f func(PlanPos) bool) { b.claimAt = f }

// rejects reports whether the put filter refuses it — an item of a
// cancelled plan epoch. Called under the item's shard lock.
func (b *Buffer) rejects(it Item) bool {
	return it.Epoch != 0 && b.epochCancelled != nil && b.epochCancelled(it.Epoch)
}

// takeCancelled reports whether a consumer wait on the given epoch should
// abort. Called under the consumer's shard lock.
func (b *Buffer) takeCancelled(id EpochID) bool {
	return id != 0 && b.epochCancelled != nil && b.epochCancelled(id)
}

// Put parks a sample at its position, blocking while its shard is full
// (unless a consumer is already waiting for this position), and reports how
// long the producer was parked on the full shard — the producer threads
// that into the next Item's PopDelay, the buffer-capacity blame signal of
// the attribution report. It returns ErrClosed after Close. A position
// holds one item at a time: the producers put each plan position once.
func (b *Buffer) Put(it Item) (parked time.Duration, _ error) {
	start := b.env.Now()
	s := b.route(it.PlanPos)
	s.mu.Lock()
	for len(s.items) >= s.capacity && s.waiting[it.PlanPos] == 0 && !s.closed && !b.rejects(it) {
		s.notFull.Wait()
	}
	now := b.env.Now()
	parked = now - start
	s.producerWaitNS += int64(parked)
	if s.closed {
		s.mu.Unlock()
		return parked, ErrClosed
	}
	if b.rejects(it) {
		// The item's epoch was cancelled (possibly while this producer was
		// parked): refuse it. The caller keeps ownership of the pooled
		// lease and must Release it.
		s.mu.Unlock()
		return parked, ErrEpochCancelled
	}
	if b.accessCost > 0 {
		b.env.Sleep(b.accessCost) // serialized within the shard: cost paid under its lock
		now = b.env.Now()
	}
	s.accrue(now)
	s.items[it.PlanPos] = it
	s.puts++
	s.arrived.Broadcast()
	s.mu.Unlock()
	if it.Ctx.Sampled && parked > 0 {
		b.tracer.Record(obs.Span{
			Trace: it.Ctx.Trace, Stage: obs.StageBufferPark, Name: it.Name,
			At: start, Latency: parked, Shard: s.idx,
		})
	}
	return parked, nil
}

// TakeOptions parameterizes one Take; the zero value waits until the sample
// arrives or the buffer closes.
type TakeOptions struct {
	// Ctx is the consumer's trace context (propagated from the IPC frame or
	// assigned by the stage).
	Ctx obs.Ctx
	// Deadline, when positive, bounds the wait: if the sample has not
	// arrived within this duration the take fails with ErrTakeDeadline
	// (and the caller returns the claim to its epoch).
	Deadline time.Duration

	// NoWait makes the take non-blocking — the read-ahead form. It succeeds
	// only on a sample that is parked right now, holds payload rather than a
	// producer error (an error belongs to the read that asks for the name),
	// is no larger than MaxBytes (when positive), and — for a plan position
	// — whose plan entry the claimAt hook accepts; presence check, claim
	// and eviction happen under one shard lock, so there is no claimed-but-
	// not-taken state to undo. Anything else is ErrNotParked, immediately.
	NoWait   bool
	MaxBytes int64
}

// Take blocks until the sample of position pos is present, removes it
// (evict-on-read) and returns it — unless the buffer closes (ErrClosed),
// pos's epoch is cancelled (ErrEpochCancelled: the typed wake-up that keeps
// consumers from blocking until Close on a sample that will never arrive),
// or the optional deadline expires (ErrTakeDeadline). Every successful
// take splits the consumer's blocked time into its storage-caused portion
// (waiting while — or before — the sample's backend read ran) and its
// buffer-capacity-caused portion (the read started late because the
// sample's producer was parked), feeding the shard's cumulative
// attribution counters; when sampled, a consumer-wait span carries the
// same split.
func (b *Buffer) Take(pos PlanPos, opts TakeOptions) (Item, error) {
	start := b.env.Now()
	ctx := opts.Ctx
	deadlineAt := time.Duration(-1)
	if opts.Deadline > 0 {
		deadlineAt = start + opts.Deadline
		b.spawnDeadlineWake(pos, opts.Deadline)
	}
	s := b.route(pos)
	s.mu.Lock()
	if opts.NoWait && !(s.holds(pos, opts.MaxBytes) && (b.claimAt == nil || b.claimAt(pos))) {
		s.mu.Unlock()
		return Item{}, ErrNotParked
	}
	var cancelled, expired bool
	if _, present := s.items[pos]; !present {
		s.waiting[pos]++
		// A producer may be blocked on a full shard while holding exactly
		// this sample; let it re-check the waiting set.
		s.notFull.Broadcast()
		for {
			if _, present := s.items[pos]; present || s.closed {
				break
			}
			if cancelled = b.takeCancelled(pos.Epoch); cancelled {
				break
			}
			if expired = deadlineAt >= 0 && b.env.Now() >= deadlineAt; expired {
				break
			}
			s.arrived.Wait()
		}
		if s.waiting[pos]--; s.waiting[pos] == 0 {
			delete(s.waiting, pos)
		}
	}
	now := b.env.Now()
	waited := now - start
	s.consumerWaitNS += int64(waited)
	it, present := s.items[pos]
	if !present {
		// An arrived sample wins over a simultaneous cancel/deadline; with
		// none present, report why the wait ended.
		s.mu.Unlock()
		switch {
		case cancelled:
			return Item{}, ErrEpochCancelled
		case expired:
			return Item{}, ErrTakeDeadline
		default: // closed while waiting
			return Item{}, ErrClosed
		}
	}
	storageW, bufferW := attributeWait(waited, now, it)
	s.waitStorageNS += int64(storageW)
	s.waitBufferNS += int64(bufferW)
	if b.accessCost > 0 {
		b.env.Sleep(b.accessCost)
		now = b.env.Now()
	}
	s.accrue(now)
	delete(s.items, pos)
	s.takes++
	// Broadcast, not Signal: with the waiting-consumer admission exception
	// the shard can sit over capacity, so a single wakeup can land on a
	// producer that still cannot proceed and be consumed without effect
	// while a different blocked producer — one whose sample a consumer is
	// waiting on — stays asleep. Waking every blocked producer lets each
	// re-check its own admission condition.
	s.notFull.Broadcast()
	s.mu.Unlock()
	b.waitHist.Observe(waited)
	if ctx.Sampled || it.Ctx.Sampled {
		span := obs.Span{
			Trace: ctx.Trace, Stage: obs.StageConsumerWait, Name: it.Name,
			At: start, Latency: waited, Shard: s.idx,
			Size: it.Size, StorageWait: storageW, BufferWait: bufferW,
		}
		if span.Trace == 0 {
			span.Trace = it.Ctx.Trace
		}
		if it.Ctx.Trace != 0 && it.Ctx.Trace != span.Trace {
			span.Link = it.Ctx.Trace
		}
		b.tracer.Record(span)
	}
	return it, nil
}

// parked reports whether a no-wait take of pos bounded by maxBytes would
// find its sample right now. It exists for callers that must spend
// something irreversible (an admission token) between looking and taking;
// the take re-checks, so a stale answer costs only that token.
func (b *Buffer) parked(pos PlanPos, maxBytes int64) bool {
	s := b.route(pos)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holds(pos, maxBytes)
}

// holds reports whether the shard has pos parked as payload (not as a
// producer error) of at most maxBytes (<= 0: any size) — what a no-wait
// take may take. Caller holds s.mu.
func (s *bufShard) holds(pos PlanPos, maxBytes int64) bool {
	it, present := s.items[pos]
	return present && it.Err == nil && (maxBytes <= 0 || it.Size <= maxBytes)
}

// spawnDeadlineWake arms a one-shot timer that wakes the waiters of pos's
// shard when a take deadline elapses, so the blocked consumer re-checks its
// deadline. Harmless if the take already finished.
func (b *Buffer) spawnDeadlineWake(pos PlanPos, d time.Duration) {
	s := b.route(pos)
	b.env.Go("take-deadline", func() {
		b.env.Sleep(d)
		s.mu.Lock()
		s.arrived.Broadcast()
		s.mu.Unlock()
	})
}

// DropWhere removes every buffered item matching pred, releasing its
// pooled lease (the drop path owns the buffer's reference, DESIGN.md §11),
// and wakes all producers and consumers so epoch-cancel predicates and
// admission conditions re-evaluate. Returns how many items were dropped.
// Positions are processed in plan order so the simulator stays
// deterministic.
func (b *Buffer) DropWhere(pred func(Item) bool) int {
	dropped := 0
	for _, s := range b.shards {
		s.mu.Lock()
		var doomed []PlanPos
		for pos, it := range s.items {
			if pred(it) {
				doomed = append(doomed, pos)
			}
		}
		sort.Slice(doomed, func(i, j int) bool { return doomed[i].before(doomed[j]) })
		s.accrue(b.env.Now())
		for _, pos := range doomed {
			it := s.items[pos]
			it.Release()
			delete(s.items, pos)
			dropped++
		}
		s.notFull.Broadcast()
		s.arrived.Broadcast()
		s.mu.Unlock()
	}
	return dropped
}

// attributeWait splits one consumer wait into the portion storage is to
// blame for and the portion buffer capacity is to blame for. The storage
// portion is the overlap of the wait with the sample's backend read plus
// any wait spent before the read began (queued behind busy producers). The
// buffer portion is bounded by the sample's PopDelay: had its producer not
// been parked, the read would have started up to PopDelay earlier, removing
// that much of the wait — this is what makes an undersized N visible even
// when the wait itself overlaps the (late-started) read. Both portions are
// clamped so their sum never exceeds the wait.
func attributeWait(wait, waitEnd time.Duration, it Item) (storageW, bufferW time.Duration) {
	if wait <= 0 {
		return 0, 0
	}
	bufferW = it.PopDelay
	if bufferW > wait {
		bufferW = wait
	}
	if it.ReadEnd > it.ReadStart {
		ws := waitEnd - wait
		// Overlap of [ws, waitEnd] with the read interval.
		lo, hi := it.ReadStart, it.ReadEnd
		if lo < ws {
			lo = ws
		}
		if hi > waitEnd {
			hi = waitEnd
		}
		if hi > lo {
			storageW = hi - lo
		}
		// Wait spent before the read even started (sample still queued).
		if pre := it.ReadStart - ws; pre > 0 {
			if pre > wait {
				pre = wait
			}
			storageW += pre
		}
	}
	if storageW > wait-bufferW {
		storageW = wait - bufferW
	}
	return storageW, bufferW
}

// Len reports the number of buffered samples across all shards.
func (b *Buffer) Len() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Capacity reports the current global capacity budget N.
func (b *Buffer) Capacity() int {
	b.cfgMu.Lock()
	defer b.cfgMu.Unlock()
	return b.capacity
}

// Shards reports the shard count K.
func (b *Buffer) Shards() int { return len(b.shards) }

// SetCapacity adjusts N (control-plane knob), repartitioning the budget
// across the fixed shards. Growing releases blocked producers; shrinking
// takes effect lazily as consumers drain (a shard over its new budget
// admits no regular Put until Takes bring it back under, but the
// waiting-consumer exception still applies, so producers can never wedge
// against waiting consumers). With N below the shard count, the surplus
// shards get a zero budget and live on that exception alone.
func (b *Buffer) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	b.cfgMu.Lock()
	defer b.cfgMu.Unlock()
	b.capacity = n
	caps := partitionCapacity(n, len(b.shards))
	for i, s := range b.shards {
		s.mu.Lock()
		if caps[i] > s.capacity {
			s.notFull.Broadcast()
		}
		s.capacity = caps[i]
		s.mu.Unlock()
	}
}

// Close wakes all blocked producers and consumers; subsequent operations
// fail. Buffered items are discarded.
func (b *Buffer) Close() {
	b.cfgMu.Lock()
	defer b.cfgMu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.shards {
		s.mu.Lock()
		s.closed = true
		s.accrue(b.env.Now())
		for _, it := range s.items {
			it.Release() // discarded, never evicted by a Take
		}
		s.items = make(map[PlanPos]Item)
		s.notFull.Broadcast()
		s.arrived.Broadcast()
		s.mu.Unlock()
	}
}

// BufferStats is a snapshot of buffer activity, aggregated over shards.
type BufferStats struct {
	Len           int
	Capacity      int
	Shards        int
	Puts          int64
	Takes         int64
	ConsumerWait  time.Duration // cumulative time consumers blocked in Take
	ProducerWait  time.Duration // cumulative time producers blocked in Put
	MeanOccupancy float64       // time-weighted average total fill level

	// Attribution splits of ConsumerWait (see Buffer.Take): the portion
	// storage reads are to blame for, and the portion buffer capacity is
	// to blame for. Inputs of obs.Attribute.
	ConsumerWaitStorage    time.Duration
	ConsumerWaitBufferFull time.Duration

	// WaitHist is the distribution of per-Take consumer waits.
	WaitHist metrics.HistogramSnapshot
}

// Stats snapshots the buffer counters. Each shard is snapshotted under its
// own lock, so the counters are mutually consistent: Takes can never exceed
// Puts, and Len always matches the occupancy accounting.
func (b *Buffer) Stats() BufferStats {
	st := BufferStats{Capacity: b.Capacity(), Shards: len(b.shards)}
	var cwNS, pwNS, wsNS, wbNS, weighted int64
	for _, s := range b.shards {
		s.mu.Lock()
		s.accrue(b.env.Now())
		st.Len += len(s.items)
		st.Puts += s.puts
		st.Takes += s.takes
		cwNS += s.consumerWaitNS
		pwNS += s.producerWaitNS
		wsNS += s.waitStorageNS
		wbNS += s.waitBufferNS
		weighted += s.occNS
		s.mu.Unlock()
	}
	st.ConsumerWait = time.Duration(cwNS)
	st.ProducerWait = time.Duration(pwNS)
	st.ConsumerWaitStorage = time.Duration(wsNS)
	st.ConsumerWaitBufferFull = time.Duration(wbNS)
	st.WaitHist = b.waitHist.Snapshot()
	if window := b.env.Now() - b.created; window > 0 {
		st.MeanOccupancy = float64(weighted) / float64(window)
	}
	return st
}
