package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
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
	// PlanQueueCapacity bounds the plan FIFO (0 = unbounded, the default).
	// With a bound, SubmitEpoch blocks once producers fall behind by that
	// many entries — backpressure for jobs that submit far ahead.
	PlanQueueCapacity int
	// TakeDeadline bounds each consumer's wait for a claimed sample
	// (0 = wait until arrival, cancellation, or Close). On expiry the read
	// fails with ErrTakeDeadline and the plan entry is returned to its
	// epoch. Adjustable at runtime via SetTakeDeadline.
	TakeDeadline time.Duration
	// BatchSamples, when > 1, coalesces up to that many FIFO-adjacent plan
	// entries living in the same storage container (recordio shard) into
	// one vectored read through Coalescer — the plan-aware read coalescer.
	// Without a Coalescer every read stays per-sample. A vectored request
	// wider than the device's channel count stops amortizing and starts
	// queueing, so callers that know the device pass its channel count
	// here. 0 or 1 disables coalescing.
	BatchSamples int
	// Coalescer is the pack view at the top of the chain, handed over by
	// the chain's fold (chain.Chain.Coalescer; nil over loose files).
	Coalescer storage.Coalescer
	// BatchBytes bounds the stored bytes one coalesced read may carry
	// (0 = DefaultBatchBytes when coalescing is enabled).
	BatchBytes int64
}

// DefaultBatchBytes is the per-batch stored-byte budget when BatchSamples
// enables coalescing without an explicit BatchBytes.
const DefaultBatchBytes = 4 << 20

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
	if c.PlanQueueCapacity < 0 {
		return fmt.Errorf("core: negative PlanQueueCapacity")
	}
	if c.TakeDeadline < 0 {
		return fmt.Errorf("core: negative TakeDeadline")
	}
	if c.BatchSamples < 0 {
		return fmt.Errorf("core: negative BatchSamples")
	}
	if c.BatchBytes < 0 {
		return fmt.Errorf("core: negative BatchBytes")
	}
	return nil
}

// planEntry is one queued plan position: the file to read, its epoch, the
// submission time (FIFO dwell measurement), and the sample's trace context.
type planEntry struct {
	name  string
	epoch EpochID
	at    time.Duration
	ctx   obs.Ctx
}

// Prefetcher reads planned files from backend storage ahead of consumption
// using up to t concurrent producer threads, parking samples in the bounded
// buffer. The plan — the per-epoch shuffled filename list shared by the DL
// framework — feeds an internal FIFO queue that fixes the read order.
type Prefetcher struct {
	env     conc.Env
	backend storage.Backend
	cfg     PrefetcherConfig
	buffer  *Buffer
	queue   *conc.Queue[planEntry]
	tracer  *obs.Tracer // set before Start via setTracer; nil-safe

	plans *planManager // epoch/claim lifecycle (DESIGN.md §12)

	mu      conc.Mutex
	target  int // desired t
	running int // producers currently alive
	nextID  int
	takeDL  time.Duration // consumer take deadline (0 = none)
	closed  bool

	// Plan-aware read coalescer budget (batchMax 1: per-sample reads).
	batchMax   int
	batchBytes int64

	activeReaders  *metrics.TimeInState       // threads inside backend.Read (Fig. 3 signal)
	readLat        *metrics.BucketedHistogram // producer-observed storage read latency
	prefetched     *metrics.Counter
	readErrors     *metrics.Counter
	batchReads     *metrics.Counter // vectored backend ops issued
	batchedSamples *metrics.Counter // samples served by those ops
	batchFallbacks *metrics.Counter // batches degraded to per-sample reads
}

// NewPrefetcher builds (but does not start) a prefetcher.
func NewPrefetcher(env conc.Env, backend storage.Backend, cfg PrefetcherConfig) (*Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pf := &Prefetcher{
		env:            env,
		backend:        backend,
		cfg:            cfg,
		buffer:         NewShardedBuffer(env, cfg.InitialBufferCapacity, cfg.BufferAccessCost, cfg.BufferShards),
		queue:          conc.NewQueue[planEntry](env, cfg.PlanQueueCapacity),
		plans:          newPlanManager(env),
		takeDL:         cfg.TakeDeadline,
		batchMax:       1,
		activeReaders:  metrics.NewTimeInState(env, 0),
		readLat:        metrics.NewBucketedHistogram(env, nil),
		prefetched:     metrics.NewCounter(env),
		readErrors:     metrics.NewCounter(env),
		batchReads:     metrics.NewCounter(env),
		batchedSamples: metrics.NewCounter(env),
		batchFallbacks: metrics.NewCounter(env),
	}
	if cfg.BatchSamples > 1 && cfg.Coalescer != nil {
		pf.batchMax = cfg.BatchSamples
		pf.batchBytes = cfg.BatchBytes
		if pf.batchBytes == 0 {
			pf.batchBytes = DefaultBatchBytes
		}
	}
	pf.mu = env.NewMutex()
	// Epoch-cancellation awareness: rejected puts and woken consumers both
	// resolve through the plan manager (a leaf lock, safe under shard locks).
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
// before Start; sample-lifecycle trace ids are assigned here at plan
// submission.
func (pf *Prefetcher) setTracer(t *obs.Tracer) {
	pf.tracer = t
	pf.buffer.SetTracer(t)
}

// SubmitPlan appends the shuffled filename list of one epoch to the
// prefetch queue. Names are read in exactly this order. Kept for callers
// that don't track epoch ids; SubmitEpoch is the full interface.
func (pf *Prefetcher) SubmitPlan(names []string) error {
	_, err := pf.SubmitEpoch(names)
	return err
}

// SubmitEpoch registers one epoch's shuffled filename list and enqueues it
// for the producers, returning the epoch id. Registration is all-or-
// nothing: entries become claimable only after every name was enqueued; a
// mid-loop queue failure aborts the whole epoch (its partial queue/buffer
// residue is dropped and its pooled leases released), so a partial
// submission can never strand a consumer waiting on a sample that was
// never enqueued. The result reports how many entries were actually
// enqueued either way. Each plan entry is the head of one sample-lifecycle
// trace (head sampling decides here).
func (pf *Prefetcher) SubmitEpoch(names []string) (PlanResult, error) {
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return PlanResult{}, ErrClosed
	}
	pf.mu.Unlock()
	id := pf.plans.begin(len(names))
	at := pf.env.Now()
	enqueued := 0
	for _, n := range names {
		if err := pf.queue.Put(planEntry{name: n, epoch: id, at: at, ctx: pf.tracer.StartTrace()}); err != nil {
			pf.plans.abort(id, enqueued)
			pf.dropEpochResidue(id)
			return PlanResult{Epoch: id, Enqueued: enqueued}, err
		}
		enqueued++
	}
	if !pf.plans.activate(id, names) {
		// Cancelled while submitting: nothing was registered.
		pf.plans.abandon(id, enqueued)
		pf.dropEpochResidue(id)
		return PlanResult{Epoch: id, Enqueued: enqueued}, ErrEpochCancelled
	}
	pf.recordPlanSpan(obs.StagePlanSubmit, id, at, int64(len(names)))
	return PlanResult{Epoch: id, Enqueued: enqueued}, nil
}

// CancelEpoch cancels a submitted epoch: unclaimed entries stop being
// claimable, its queued entries are dropped, its buffered samples are
// released back to the pool, in-flight producer reads are refused at Put,
// and consumers blocked on its samples wake with ErrEpochCancelled.
// Cancelling a terminal epoch is a no-op; an unknown id is ErrUnknownEpoch.
// It reports how many registered plan entries the cancellation removed.
func (pf *Prefetcher) CancelEpoch(id EpochID) (int, error) {
	at := pf.env.Now()
	removed, err := pf.plans.cancel(id)
	if err != nil {
		return 0, err
	}
	pf.dropEpochResidue(id)
	pf.recordPlanSpan(obs.StageEpochCancel, id, at, int64(removed))
	return removed, nil
}

// dropEpochResidue removes a cancelled epoch's entries from the plan queue
// and its samples from the buffer (releasing their pooled leases). This is
// physical cleanup: the entries these items carry were already charged as
// dropped by the cancel sweep or abort/abandon, so only residue of pruned
// (unknown) epochs still needs accounting, which noteDropped handles. The
// buffer drop also wakes blocked consumers so their cancel predicates
// re-evaluate.
func (pf *Prefetcher) dropEpochResidue(id EpochID) int {
	n := pf.queue.DropWhere(func(e planEntry) bool { return e.epoch == id })
	n += pf.buffer.DropWhere(func(it Item) bool { return it.Epoch == id })
	pf.plans.noteDropped(id, n)
	return n
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

// Planned reports whether name has a claimable plan entry; unplanned reads
// bypass the buffer (the prototype does not prefetch validation files,
// paper §V-A).
func (pf *Prefetcher) Planned(name string) bool { return pf.plans.hasEntry(name) }

// Epochs lists the retained epochs' statuses in submission order.
func (pf *Prefetcher) Epochs() []EpochStatus { return pf.plans.statuses() }

// PlanStats snapshots aggregate plan-lifecycle activity.
func (pf *Prefetcher) PlanStats() PlanStats { return pf.plans.stats() }

// SetTakeDeadline adjusts the consumer take deadline at runtime (0 = none).
func (pf *Prefetcher) SetTakeDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	pf.mu.Lock()
	pf.takeDL = d
	pf.mu.Unlock()
}

// TakeDeadline reports the current consumer take deadline.
func (pf *Prefetcher) TakeDeadline() time.Duration {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.takeDL
}

// read serves a planned file from the buffer, blocking until the producers
// deliver it; the request's trace context flows into the buffer so the Take
// wait is recorded against the right trace. planned=false means the name
// has no claimable plan entry and the stage bypasses to backend storage.
//
// Claim-or-bypass: the existence check and the exclusive hold on a plan
// entry happen in one plan-manager critical section, so two consumers
// racing one multiplicity-1 entry can never both commit to waiting — the
// loser's claim fails and it bypasses to the backend like any unplanned
// read (the Planned→Take TOCTOU hang is structurally impossible). A
// delivered read also reports the position of the plan entry it consumed.
func (pf *Prefetcher) read(req ReadRequest) (_ storage.Data, _ PlanPos, planned bool, _ error) {
	claim, ok := pf.plans.claim(req.Name)
	if !ok {
		return storage.Data{}, PlanPos{}, false, nil
	}
	it, err := pf.buffer.Take(req.Name, TakeOptions{
		Ctx:      req.Ctx,
		Epoch:    claim.Epoch,
		Deadline: pf.TakeDeadline(),
	})
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
// parked waiting for plan entries (the queue wake below interrupts their
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
	pf.mu.Unlock()
	for _, id := range spawn {
		id := id
		pf.env.Go(fmt.Sprintf("prisma-producer-%d", id), func() { pf.producerLoop() })
	}
	if shrunk {
		// Outside pf.mu: the queue lock is always taken before pf.mu
		// (GetOr's stop predicate), never after.
		pf.queue.Wake()
	}
}

// Producers reports (target, running) producer counts.
func (pf *Prefetcher) Producers() (target, running int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.target, pf.running
}

// surplus reports whether this producer should retire instead of parking
// for the next plan entry. It is the GetOr stop predicate, called under
// the queue lock; pf.mu nests inside the queue lock (and never the other
// way around — SetProducers wakes the queue only after releasing pf.mu).
func (pf *Prefetcher) surplus() bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.closed || pf.running > pf.target
}

// producerLoop is the body of one producer thread. It pops contiguous
// same-shard runs off the plan FIFO — bounded by BatchSamples and
// BatchBytes; always of length 1 without a coalescer — and serves each run
// of several samples with one vectored backend read, delivering per-sample
// views into the buffer with per-entry cancel checks, spans, counters,
// PopDelay attribution, and pooled single-ownership hand-off. A failed
// batch falls back to per-sample reads for that run, so batching can
// degrade but never lose or duplicate a sample.
func (pf *Prefetcher) producerLoop() {
	// prevPark is how long this thread's previous Put parked on a full
	// shard. It rides on the next Item as PopDelay: that sample's read
	// started late by (up to) this much because of buffer capacity, which
	// is the causal signal the consumer-wait attribution needs.
	var prevPark time.Duration
	// Per-producer scratch, reused every iteration: the hot path must stay
	// 0 allocs/op, batched or not.
	run := make([]planEntry, 0, pf.batchMax)
	names := make([]string, 0, pf.batchMax)
	datas := make([]storage.Data, 0, pf.batchMax)
	errs := make([]error, 0, pf.batchMax)
	details := make([]storage.ReadDetail, 0, pf.batchMax)

	// Run-grouping state for the queue predicate, reset before each pop.
	// The closure is allocated once per producer; it runs under the queue
	// lock and touches only the coalescer's read-only index. Without a
	// coalescer batchMax is 1 and the queue never calls it.
	var reader storage.SampleBatcher
	var same func(first, cand planEntry) bool
	var haveFirst bool
	if pf.batchMax > 1 {
		co := pf.cfg.Coalescer
		reader = co.BatchReader()
		var runShard string
		var runBytes int64
		var firstBatchable bool
		same = func(first, cand planEntry) bool {
			if !haveFirst {
				haveFirst = true
				sh, n, ok := co.Locate(first.name)
				firstBatchable = ok
				if !ok {
					return false
				}
				runShard, runBytes = sh, n
			}
			if !firstBatchable || cand.epoch != first.epoch {
				return false
			}
			sh, n, ok := co.Locate(cand.name)
			if !ok || sh != runShard {
				return false
			}
			if pf.batchBytes > 0 && runBytes+n > pf.batchBytes {
				return false
			}
			runBytes += n
			return true
		}
	}

	for {
		pf.mu.Lock()
		if pf.closed || pf.running > pf.target {
			pf.running--
			pf.mu.Unlock()
			return
		}
		pf.mu.Unlock()

		haveFirst = false
		var ok, stopped bool
		run, ok, stopped = pf.queue.GetRunOr(pf.surplus, pf.batchMax, same, run[:0])
		if stopped {
			// Woken while surplus (SetProducers shrank t on an idle queue):
			// loop to the top, where the retire check decrements running
			// under pf.mu — serializing concurrent retirees so the count
			// never undershoots the new target.
			continue
		}
		if !ok { // queue closed and drained
			pf.mu.Lock()
			pf.running--
			pf.mu.Unlock()
			return
		}
		// Drop entries whose epoch was cancelled while they sat in the FIFO
		// (or popped concurrently with the cancel's DropWhere): skip the
		// read entirely.
		live := 0
		for _, e := range run {
			if pf.plans.cancelledEpoch(e.epoch) {
				pf.plans.noteDropped(e.epoch, 1)
				continue
			}
			run[live] = e
			live++
		}
		run = run[:live]
		if live == 0 {
			continue
		}

		readStart := pf.env.Now()
		names = names[:0]
		for _, e := range run {
			if e.ctx.Sampled {
				pf.tracer.Record(obs.Span{
					Trace:   e.ctx.Trace,
					Stage:   obs.StageFIFOPop,
					Name:    e.name,
					At:      e.at,
					Latency: readStart - e.at,
				})
			}
			names = append(names, e.name)
		}

		datas = datas[:0]
		errs = errs[:0]
		details = details[:0]
		batched := false
		pf.activeReaders.Add(1)
		if live > 1 {
			res, berr := reader.ReadSampleBatch(names, datas)
			if berr == nil {
				datas = res
				batched = true
				for range run {
					errs = append(errs, nil)
					details = append(details, storage.ReadDetail{})
				}
			} else {
				pf.batchFallbacks.Inc()
			}
		}
		if !batched {
			for _, e := range run {
				resp, rerr := pf.backend.Read(storage.Request{Name: e.name, Ctx: e.ctx})
				datas = append(datas, resp.Data)
				details = append(details, resp.Detail)
				errs = append(errs, rerr)
			}
		}
		pf.activeReaders.Add(-1)
		readEnd := pf.env.Now()
		pf.readLat.Observe(readEnd - readStart)
		if batched {
			pf.batchReads.Inc()
			pf.batchedSamples.Add(int64(live))
		}

		for i, e := range run {
			d, rerr := datas[i], errs[i]
			if e.ctx.Sampled {
				sp := obs.Span{
					Trace:   e.ctx.Trace,
					Stage:   obs.StageStorageRead,
					Name:    e.name,
					At:      readStart,
					Latency: readEnd - readStart,
					Size:    d.Size,
					Breaker: details[i].Breaker,
				}
				if details[i].Attempts > 1 {
					sp.Retries = details[i].Attempts - 1
				}
				if rerr != nil {
					sp.Error = rerr.Error()
				}
				pf.tracer.Record(sp)
			}
			it := Item{
				Name:      e.name,
				Size:      d.Size,
				Bytes:     d.Bytes,
				Ref:       d.Ref,
				Err:       rerr,
				Ctx:       e.ctx,
				Epoch:     e.epoch,
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
				// Cancelled mid-read or while parked: the view never entered
				// the buffer, so its pooled lease is this thread's to drop.
				// The producer itself lives on.
				it.Release()
				pf.plans.noteDropped(e.epoch, 1)
				prevPark = 0
			default:
				// Buffer closed: shutting down. Release this view and every
				// undelivered one — they never entered the buffer.
				it.Release()
				for j := i + 1; j < len(datas); j++ {
					datas[j].Release()
				}
				pf.mu.Lock()
				pf.running--
				pf.mu.Unlock()
				return
			}
		}
	}
}

// BatchEnabled reports whether the plan-aware read coalescer is active
// (configured on and handed a Coalescer).
func (pf *Prefetcher) BatchEnabled() bool { return pf.batchMax > 1 }

// BatchReads reports the number of vectored backend reads issued.
func (pf *Prefetcher) BatchReads() int64 { return pf.batchReads.Value() }

// BatchedSamples reports how many samples were served by vectored reads.
func (pf *Prefetcher) BatchedSamples() int64 { return pf.batchedSamples.Value() }

// BatchFallbacks reports how many runs degraded to per-sample reads after
// a failed batch.
func (pf *Prefetcher) BatchFallbacks() int64 { return pf.batchFallbacks.Value() }

// StorageBusy reports the cumulative producer time spent inside backend
// reads — the attribution report's storage-busy context signal.
func (pf *Prefetcher) StorageBusy() time.Duration {
	return time.Duration(pf.activeReaders.TimeWeightedSum())
}

// ReadLatency returns the producer-observed storage read latency histogram.
func (pf *Prefetcher) ReadLatency() metrics.HistogramSnapshot {
	return pf.readLat.Snapshot()
}

// ActiveReaderDistribution reports time spent at each concurrent-reader
// count — the paper's Figure 3 measurement for PRISMA.
func (pf *Prefetcher) ActiveReaderDistribution() map[int]time.Duration {
	return pf.activeReaders.Distribution()
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
	pf.mu.Unlock()
	pf.queue.Close()
	pf.buffer.Close()
}

// QueueLen reports the number of filenames awaiting prefetch.
func (pf *Prefetcher) QueueLen() int { return pf.queue.Len() }

// PrefetchedFiles reports the number of successful producer reads.
func (pf *Prefetcher) PrefetchedFiles() int64 { return pf.prefetched.Value() }

// ReadErrors reports the number of failed producer reads.
func (pf *Prefetcher) ReadErrors() int64 { return pf.readErrors.Value() }
