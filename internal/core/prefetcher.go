package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// StageConfig parameterizes a stage. Its knobs are the parallel
// data-prefetching optimization object's: the control plane adjusts
// Producers (t) and BufferCapacity (N) at runtime within [1, MaxProducers]
// and [1, MaxBufferCapacity]. The rest is the stage's wiring, all optional
// and fixed at construction: what it traces into, reports, and hands each
// submitted plan to.
type StageConfig struct {
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

	// Tracer records the sample-lifecycle, buffer and plan spans (nil:
	// tracing off). Trace ids are assigned as producers pop plan positions.
	Tracer *obs.Tracer
	// BufferPool is the sample buffer pool whose occupancy and hit rate
	// ride the monitoring snapshot (nil: pooling off). The pool itself is
	// attached to the storage layers that allocate payloads; the stage only
	// reports it.
	BufferPool *mempool.Pool
	// ChainStats fills in what the storage chain below the stage adds to
	// every snapshot — each of its layers its own part — so breaker state,
	// retry pressure and the memory hierarchy ride the stage's monitoring
	// snapshot (and hence the IPC Stats round trip) wherever their layers
	// sit. Nil leaves those parts zero-valued.
	ChainStats func(*StageStats)
	// EpochPlanHook is called with every successfully submitted epoch plan,
	// as the manifest entries it names — each name the manifest's own
	// string with its size — and with the live set: each sample the active
	// epochs' plans name (this one's included, as partitioned), once, in
	// the order first planned. Every submission path, in-process and IPC,
	// crosses the stage's one submit, so the memory hierarchy sees plans
	// from remote data loaders too.
	EpochPlanHook func(plan, live []dataset.Sample)
	// PlanPartitioner narrows every submitted epoch plan to the subset this
	// stage prefetches, preserving plan order. The cluster fabric's ring
	// ownership filter goes here, so a worker can submit the full shuffled
	// epoch order (the clairvoyant signal) to any node while each node
	// prefetches exactly the samples it owns. The epoch-plan hook still
	// observes the full plan. Nil submits plans unfiltered.
	PlanPartitioner func(names []string) []string
	// ProducerBackend is what the producers read from; nil means the
	// stage's backend, which also serves bypass reads. A simulation that
	// counts producer reads apart from bypass reads (storage.ReaderCount)
	// wraps the stage's backend here.
	ProducerBackend storage.Backend
}

// DefaultStageConfig mirrors the prototype's conservative starting point:
// one producer and a small buffer, leaving tuning to the control plane's
// feedback loop.
func DefaultStageConfig() StageConfig {
	return StageConfig{
		InitialProducers:      1,
		MaxProducers:          32,
		InitialBufferCapacity: 16,
		MaxBufferCapacity:     4096,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c StageConfig) Validate() error {
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

// The producer half of the stage: up to t concurrent producer threads read
// planned files from the backend ahead of consumption and park them in the
// bounded buffer. The plan — the per-epoch shuffled filename list shared by
// the DL framework — is the producers' FIFO: they pop it from the plan
// manager in submission order.

// Start launches the initial producers. It must be called exactly once,
// from a thread of the stage's environment.
func (s *Stage) Start() { s.SetProducers(s.cfg.InitialProducers) }

// SetProducers adjusts the target number of producer threads t (control
// interface), spawning new producers immediately and retiring surplus ones
// even while they are parked waiting for plan positions (the plan wake below
// interrupts their wait). The value is clamped to [1, MaxProducers]: with no
// producer every planned read would wait for a sample nobody reads. Close
// stops them all.
func (s *Stage) SetProducers(n int) {
	if n < 1 {
		n = 1
	}
	if n > s.cfg.MaxProducers {
		n = s.cfg.MaxProducers
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.target = n
	shrunk := s.running > s.target
	var spawn []int
	for s.running < s.target {
		s.running++
		s.nextID++
		spawn = append(spawn, s.nextID)
	}
	s.syncRetireLocked()
	s.mu.Unlock()
	for _, id := range spawn {
		s.env.Go(fmt.Sprintf("prisma-producer-%d", id), s.producerLoop)
	}
	if shrunk {
		// Outside s.mu: the plan lock is never taken under s.mu.
		s.plans.wake()
	}
}

// syncRetireLocked refreshes the retire mirror. Caller holds s.mu.
func (s *Stage) syncRetireLocked() { s.retire.Store(s.closed || s.running > s.target) }

// retireOne decrements running for a producer that leaves, and reports
// true, when its exit is due: unconditionally with force (the plan or the
// buffer closed under it), otherwise when the stage is closed or over
// target.
func (s *Stage) retireOne(force bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !force && !s.closed && s.running <= s.target {
		return false
	}
	s.running--
	s.syncRetireLocked()
	return true
}

// surplus reports whether this producer should retire instead of parking
// for the next plan position. It is pop's stop predicate, called under the
// plan lock; SetProducers stores the mirror before it wakes the plan, so a
// parked producer re-checks after every change.
func (s *Stage) surplus() bool { return s.retire.Load() }

// producerLoop is the body of one producer thread. It pops plan positions
// from the plan manager one at a time, in plan order, reads each sample
// whole from the backend and parks it in the buffer, with the cancel check,
// spans, counters, PopDelay attribution and pooled single-ownership
// hand-off.
func (s *Stage) producerLoop() {
	// prevPark is how long this thread's previous Put parked on a full
	// shard. It rides on the next Item as PopDelay: that sample's read
	// started late by (up to) this much because of buffer capacity, which
	// is the causal signal the consumer-wait attribution needs.
	var prevPark time.Duration
	for {
		if s.retire.Load() && s.retireOne(false) {
			return
		}

		e, at, ok, stopped := s.plans.pop(s.surplus)
		if stopped {
			// Woken while surplus (SetProducers shrank t on an idle plan):
			// loop to the top, where the retire check decrements running
			// under s.mu — serializing concurrent retirees so the count
			// never undershoots the new target.
			continue
		}
		if !ok { // closed with nothing left to pop
			s.retireOne(true)
			return
		}

		// Each popped position heads one sample-lifecycle trace (head
		// sampling decides here).
		readStart := s.env.Now()
		ctx := s.cfg.Tracer.StartTrace()
		if ctx.Sampled {
			s.cfg.Tracer.Record(obs.Span{
				Trace:   ctx.Trace,
				Stage:   obs.StageFIFOPop,
				Name:    e.Name,
				At:      at,
				Latency: readStart - at,
			})
		}
		resp, rerr := s.producerBackend.Read(storage.Request{Name: e.Name, Ctx: ctx, Slot: int(e.Slot) + 1})
		d := resp.Data
		readEnd := s.env.Now()
		s.readLat.Observe(readEnd - readStart)
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
			s.cfg.Tracer.Record(sp)
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
			s.readErrors.Inc()
		} else {
			s.prefetched.Inc()
		}
		parked, perr := s.buffer.Put(it)
		switch {
		case perr == nil:
			prevPark = parked
		case errors.Is(perr, ErrEpochCancelled):
			// Cancelled mid-read or while parked: the sample never entered
			// the buffer, so its pooled lease is this thread's to drop. The
			// producer itself lives on.
			it.Release()
			s.plans.noteDropped(e.Epoch, 1)
			prevPark = 0
		default:
			// Buffer closed: shutting down. The sample never entered the
			// buffer.
			it.Release()
			s.retireOne(true)
			return
		}
	}
}

// Close stops the producers and unblocks all buffer users. Idempotent.
func (s *Stage) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.target = 0
	s.syncRetireLocked()
	s.mu.Unlock()
	s.plans.close()
	s.buffer.Close()
}
