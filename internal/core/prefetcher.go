package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// PrefetcherConfig parameterizes the parallel data-prefetching optimization
// object. The control plane adjusts Producers (t) and BufferCapacity (N) at
// runtime within [1, MaxProducers] and [1, MaxBufferCapacity].
type PrefetcherConfig struct {
	// InitialProducers is t at startup.
	InitialProducers int
	// MaxProducers bounds t.
	MaxProducers int
	// InitialBufferCapacity is N at startup.
	InitialBufferCapacity int
	// MaxBufferCapacity bounds N.
	MaxBufferCapacity int
	// BufferAccessCost is the serialized per-operation cost of the shared
	// in-memory buffer (see Buffer).
	BufferAccessCost time.Duration
	// BufferShards is the buffer shard count K, fixed for the buffer's
	// life. Zero selects a single shard (the paper's shared-buffer
	// behavior); values are clamped as in NewShardedBuffer.
	BufferShards int
	// TakeDeadline bounds each consumer's wait for a claimed sample
	// (0 = wait until arrival, cancellation, or Close). On expiry the read
	// fails with ErrTakeDeadline and the plan entry is returned to its
	// epoch. Adjustable at runtime via SetTakeDeadline.
	TakeDeadline time.Duration
}

// DefaultPrefetcherConfig mirrors the prototype's conservative starting
// point: one producer and a small buffer, leaving tuning to the control
// plane's feedback loop.
func DefaultPrefetcherConfig() PrefetcherConfig {
	return PrefetcherConfig{
		InitialProducers:      1,
		MaxProducers:          32,
		InitialBufferCapacity: 16,
		MaxBufferCapacity:     4096,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c PrefetcherConfig) Validate() error {
	if c.InitialProducers < 1 {
		return fmt.Errorf("core: InitialProducers %d < 1", c.InitialProducers)
	}
	if c.MaxProducers < c.InitialProducers {
		return fmt.Errorf("core: MaxProducers %d < InitialProducers %d", c.MaxProducers, c.InitialProducers)
	}
	if c.InitialBufferCapacity < 1 {
		return fmt.Errorf("core: InitialBufferCapacity %d < 1", c.InitialBufferCapacity)
	}
	if c.MaxBufferCapacity < c.InitialBufferCapacity {
		return fmt.Errorf("core: MaxBufferCapacity %d < InitialBufferCapacity %d", c.MaxBufferCapacity, c.InitialBufferCapacity)
	}
	if c.BufferAccessCost < 0 {
		return fmt.Errorf("core: negative BufferAccessCost")
	}
	if c.BufferShards < 0 {
		return fmt.Errorf("core: negative BufferShards")
	}
	if c.TakeDeadline < 0 {
		return fmt.Errorf("core: negative TakeDeadline")
	}
	return nil
}

// Prefetcher reads planned files from backend storage ahead of consumption
// using up to t concurrent producer threads, parking samples in the bounded
// buffer. The plan — the per-epoch shuffled filename list shared by the DL
// framework — is the producers' FIFO: they pop it from the plan manager in
// submission order.
type Prefetcher struct {
	env     conc.Env
	backend storage.Backend
	cfg     PrefetcherConfig
	buffer  *Buffer
	tracer  *obs.Tracer // set before Start via setTracer; nil-safe

	plans    *planManager      // epoch/claim lifecycle (DESIGN.md §12)
	manifest *dataset.Manifest // its name index is the one the stage resolves in (names.go)

	mu      conc.Mutex
	target  int // desired t
	running int // producers currently alive
	nextID  int
	closed  bool
	// retire mirrors closed || running > target, stored under mu whenever
	// one of them changes, so producers check it per run without mu.
	retire atomic.Bool

	takeDL atomic.Int64 // consumer take deadline in ns (0 = none)

	readLat    *metrics.BucketedHistogram // producer-observed storage read latency
	prefetched *metrics.Counter
	readErrors *metrics.Counter
}

// NewPrefetcher builds (but does not start) a prefetcher over the dataset
// manifest m: its flat index is the one name table the prefetcher, its plan
// manager and its stage share, so a plan may name only files m lists.
func NewPrefetcher(env conc.Env, backend storage.Backend, m *dataset.Manifest, cfg PrefetcherConfig) (*Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, errors.New("core: prefetcher needs a dataset manifest")
	}
	pf := &Prefetcher{
		env:        env,
		backend:    backend,
		cfg:        cfg,
		buffer:     NewShardedBuffer(env, cfg.InitialBufferCapacity, cfg.BufferAccessCost, cfg.BufferShards),
		plans:      newPlanManager(env, m.Names()),
		manifest:   m,
		readLat:    metrics.NewBucketedHistogram(env, nil),
		prefetched: metrics.NewCounter(env),
		readErrors: metrics.NewCounter(env),
	}
	pf.mu = env.NewMutex()
	pf.takeDL.Store(int64(cfg.TakeDeadline))
	// Epoch-cancellation awareness: rejected puts and woken consumers both
	// resolve through the plan manager (shard → plan lock order, §12).
	pf.buffer.SetEpochCancelled(pf.plans.cancelledEpoch)
	pf.buffer.SetClaimAt(pf.plans.claimAt)
	return pf, nil
}

// Start launches the initial producers. It must be called exactly once,
// from a thread of the prefetcher's environment.
func (pf *Prefetcher) Start() { pf.SetProducers(pf.cfg.InitialProducers) }

// Buffer exposes the in-memory buffer (for the stage and for tests).
func (pf *Prefetcher) Buffer() *Buffer { return pf.buffer }

// Config returns the static configuration.
func (pf *Prefetcher) Config() PrefetcherConfig { return pf.cfg }

// setTracer attaches the tracer (and propagates it to the buffer). Call
// before Start; sample-lifecycle trace ids are assigned as producers pop
// plan positions.
func (pf *Prefetcher) setTracer(t *obs.Tracer) {
	pf.tracer = t
	pf.buffer.SetTracer(t)
}

// SubmitEpoch registers one epoch's shuffled filename list for the
// producers, who read the names in exactly this order, and returns the
// epoch id. Registration is one plan-manager critical section: every entry
// becomes claimable at once, so a consumer can never wait on a sample of a
// half-registered plan. On success the result reports every name as
// enqueued.
func (pf *Prefetcher) SubmitEpoch(names []string) (PlanResult, error) {
	slots, err := planSlots(pf.manifest.Names(), names)
	if err != nil {
		return PlanResult{}, err
	}
	return pf.submit(slots, false)
}

// submit is SubmitEpoch for a plan already resolved to name slots; held
// leaves parked producers parked (see Stage.SubmitEpochHeld).
func (pf *Prefetcher) submit(slots []int32, held bool) (PlanResult, error) {
	at := pf.env.Now()
	id, err := pf.plans.register(slots, held)
	if err != nil {
		return PlanResult{}, err
	}
	pf.recordPlanSpan(obs.StagePlanSubmit, id, at, int64(len(slots)))
	return PlanResult{Epoch: id, Enqueued: len(slots)}, nil
}

// CancelEpoch cancels a submitted epoch: unclaimed entries stop being
// claimable, its unpopped positions are never read, its buffered samples
// are released back to the pool, in-flight producer reads are refused at
// Put, and consumers blocked on its samples wake with ErrEpochCancelled.
// Cancelling a terminal epoch is a no-op; an unknown id is ErrUnknownEpoch.
// It reports how many registered plan entries the cancellation removed.
func (pf *Prefetcher) CancelEpoch(id EpochID) (int, error) {
	at := pf.env.Now()
	removed, err := pf.plans.cancel(id)
	if err != nil {
		return 0, err
	}
	// Physical cleanup: the buffered samples' entries were already charged
	// by the cancel sweep or their claims, so only residue of a pruned
	// epoch still needs accounting. The drop also wakes blocked consumers
	// so their cancel predicates re-evaluate.
	pf.plans.noteDropped(id, pf.buffer.DropWhere(func(it Item) bool { return it.Epoch == id }))
	pf.recordPlanSpan(obs.StageEpochCancel, id, at, int64(removed))
	return removed, nil
}

// recordPlanSpan emits a control-plane lifecycle span for an epoch submit
// or cancel, subject to head sampling like any sample trace.
func (pf *Prefetcher) recordPlanSpan(stage string, id EpochID, at time.Duration, size int64) {
	ctx := pf.tracer.StartTrace()
	if !ctx.Sampled {
		return
	}
	pf.tracer.Record(obs.Span{
		Trace:   ctx.Trace,
		Stage:   stage,
		Name:    fmt.Sprintf("epoch-%d", id),
		At:      at,
		Latency: pf.env.Now() - at,
		Size:    size,
	})
}

// Epochs lists the retained epochs' statuses in submission order.
func (pf *Prefetcher) Epochs() []EpochStatus { return pf.plans.statuses() }

// PlanStats snapshots aggregate plan-lifecycle activity.
func (pf *Prefetcher) PlanStats() PlanStats { return pf.plans.stats() }

// SetTakeDeadline adjusts the consumer take deadline at runtime (0 = none).
func (pf *Prefetcher) SetTakeDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	pf.takeDL.Store(int64(d))
}

// TakeDeadline reports the current consumer take deadline.
func (pf *Prefetcher) TakeDeadline() time.Duration { return time.Duration(pf.takeDL.Load()) }

// read serves a planned file, whose name resolved to slot, from the buffer,
// blocking until the producers deliver it; the request's trace context
// flows into the buffer so the Take wait is recorded against the right
// trace. planned=false means the name has no claimable plan entry and the
// stage bypasses to backend storage.
//
// Claim-or-bypass: the existence check and the exclusive hold on a plan
// entry happen in one plan-manager critical section, so two consumers
// racing one multiplicity-1 entry can never both commit to waiting — the
// loser's claim fails and it bypasses to the backend like any unplanned
// read (the Planned→Take TOCTOU hang is structurally impossible). A
// delivered read also reports the position of the plan entry it consumed.
func (pf *Prefetcher) read(req ReadRequest, slot int32) (_ storage.Data, _ PlanPos, planned bool, _ error) {
	claim, ok := pf.plans.claim(slot)
	if !ok {
		return storage.Data{}, PlanPos{}, false, nil
	}
	it, err := pf.buffer.Take(claim.PlanPos, TakeOptions{Ctx: req.Ctx, Deadline: pf.TakeDeadline()})
	if err != nil {
		switch {
		case errors.Is(err, ErrEpochCancelled):
			pf.plans.claimDropped(claim)
		default:
			// Deadline or shutdown: the sample may still arrive, so the
			// entry goes back to its epoch for a later read to claim.
			pf.plans.unclaim(claim)
		}
		return storage.Data{}, PlanPos{}, true, err
	}
	pf.plans.deliver(claim)
	if it.Err != nil {
		return storage.Data{}, PlanPos{}, true, it.Err
	}
	// Evict-on-read: the Take transferred the buffer's reference to us, and
	// returning the Data passes it on to the consumer.
	return storage.Data{Name: it.Name, Size: it.Size, Bytes: it.Bytes, Ref: it.Ref}, claim.PlanPos, true, nil
}

// SetProducers adjusts the target number of producer threads t, spawning
// new producers immediately and retiring surplus ones even while they are
// parked waiting for plan positions (the plan wake below interrupts their
// wait). The value is clamped to [1, MaxProducers]: with no producer every
// planned read would wait for a sample nobody reads. Close stops them all.
func (pf *Prefetcher) SetProducers(n int) {
	if n < 1 {
		n = 1
	}
	if n > pf.cfg.MaxProducers {
		n = pf.cfg.MaxProducers
	}
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.target = n
	shrunk := pf.running > pf.target
	var spawn []int
	for pf.running < pf.target {
		pf.running++
		pf.nextID++
		spawn = append(spawn, pf.nextID)
	}
	pf.syncRetireLocked()
	pf.mu.Unlock()
	for _, id := range spawn {
		id := id
		pf.env.Go(fmt.Sprintf("prisma-producer-%d", id), func() { pf.producerLoop() })
	}
	if shrunk {
		// Outside pf.mu: the plan lock is never taken under pf.mu.
		pf.plans.wake()
	}
}

// syncRetireLocked refreshes the retire mirror. Caller holds pf.mu.
func (pf *Prefetcher) syncRetireLocked() { pf.retire.Store(pf.closed || pf.running > pf.target) }

// retireOne decrements running for a producer that leaves, and reports
// true, when its exit is due: unconditionally with force (the plan or the
// buffer closed under it), otherwise when the prefetcher is closed or over
// target.
func (pf *Prefetcher) retireOne(force bool) bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if !force && !pf.closed && pf.running <= pf.target {
		return false
	}
	pf.running--
	pf.syncRetireLocked()
	return true
}

// Producers reports (target, running) producer counts.
func (pf *Prefetcher) Producers() (target, running int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.target, pf.running
}

// surplus reports whether this producer should retire instead of parking
// for the next plan position. It is pop's stop predicate, called under the
// plan lock; SetProducers stores the mirror before it wakes the plan, so a
// parked producer re-checks after every change.
func (pf *Prefetcher) surplus() bool { return pf.retire.Load() }

// producerLoop is the body of one producer thread. It pops plan positions
// from the plan manager one at a time, in plan order, reads each sample
// whole from the backend and parks it in the buffer, with the cancel check,
// spans, counters, PopDelay attribution and pooled single-ownership
// hand-off.
func (pf *Prefetcher) producerLoop() {
	// prevPark is how long this thread's previous Put parked on a full
	// shard. It rides on the next Item as PopDelay: that sample's read
	// started late by (up to) this much because of buffer capacity, which
	// is the causal signal the consumer-wait attribution needs.
	var prevPark time.Duration
	for {
		if pf.retire.Load() && pf.retireOne(false) {
			return
		}

		e, at, ok, stopped := pf.plans.pop(pf.surplus)
		if stopped {
			// Woken while surplus (SetProducers shrank t on an idle plan):
			// loop to the top, where the retire check decrements running
			// under pf.mu — serializing concurrent retirees so the count
			// never undershoots the new target.
			continue
		}
		if !ok { // closed with nothing left to pop
			pf.retireOne(true)
			return
		}

		// Each popped position heads one sample-lifecycle trace (head
		// sampling decides here).
		readStart := pf.env.Now()
		ctx := pf.tracer.StartTrace()
		if ctx.Sampled {
			pf.tracer.Record(obs.Span{
				Trace:   ctx.Trace,
				Stage:   obs.StageFIFOPop,
				Name:    e.Name,
				At:      at,
				Latency: readStart - at,
			})
		}
		resp, rerr := pf.backend.Read(storage.Request{Name: e.Name, Ctx: ctx, Slot: int(e.Slot) + 1})
		d := resp.Data
		readEnd := pf.env.Now()
		pf.readLat.Observe(readEnd - readStart)
		if ctx.Sampled {
			sp := obs.Span{
				Trace:   ctx.Trace,
				Stage:   obs.StageStorageRead,
				Name:    e.Name,
				At:      readStart,
				Latency: readEnd - readStart,
				Size:    d.Size,
				Breaker: resp.Detail.Breaker,
			}
			if resp.Detail.Attempts > 1 {
				sp.Retries = resp.Detail.Attempts - 1
			}
			if rerr != nil {
				sp.Error = rerr.Error()
			}
			pf.tracer.Record(sp)
		}
		it := Item{
			Name:      e.Name,
			Size:      d.Size,
			Bytes:     d.Bytes,
			Ref:       d.Ref,
			Err:       rerr,
			Ctx:       ctx,
			PlanPos:   e.PlanPos,
			ReadStart: readStart,
			ReadEnd:   readEnd,
			PopDelay:  prevPark,
		}
		if rerr != nil {
			pf.readErrors.Inc()
		} else {
			pf.prefetched.Inc()
		}
		parked, perr := pf.buffer.Put(it)
		switch {
		case perr == nil:
			prevPark = parked
		case errors.Is(perr, ErrEpochCancelled):
			// Cancelled mid-read or while parked: the sample never entered
			// the buffer, so its pooled lease is this thread's to drop. The
			// producer itself lives on.
			it.Release()
			pf.plans.noteDropped(e.Epoch, 1)
			prevPark = 0
		default:
			// Buffer closed: shutting down. The sample never entered the
			// buffer.
			it.Release()
			pf.retireOne(true)
			return
		}
	}
}

// ReadLatency returns the producer-observed storage read latency histogram.
func (pf *Prefetcher) ReadLatency() metrics.HistogramSnapshot {
	return pf.readLat.Snapshot()
}

// Close stops producers and unblocks all buffer users. Idempotent.
func (pf *Prefetcher) Close() {
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.closed = true
	pf.target = 0
	pf.syncRetireLocked()
	pf.mu.Unlock()
	pf.plans.close()
	pf.buffer.Close()
}

// QueueLen reports the number of plan positions awaiting prefetch: the
// unpopped positions of live epochs.
func (pf *Prefetcher) QueueLen() int { return pf.plans.unpopped() }

// PrefetchedFiles reports the number of successful producer reads.
func (pf *Prefetcher) PrefetchedFiles() int64 { return pf.prefetched.Value() }

// ReadErrors reports the number of failed producer reads.
func (pf *Prefetcher) ReadErrors() int64 { return pf.readErrors.Value() }
