package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// ReadRequest is one intercepted read (DESIGN.md §20). Who is asking and
// how the read is traced travel inside the request rather than selecting a
// different method, so every layer between the interception point and the
// buffer — fabric, stage — has exactly one read.
type ReadRequest struct {
	// Name is the sample's dataset-relative file name.
	Name string
	// Tenant is the identity the read is admitted, charged and SLO-observed
	// as. Empty resolves to the default tenant at the gate, and is a free
	// no-op on a stage without one.
	Tenant string
	// Ctx continues a trace the caller already sampled (the IPC server sets
	// it from the frame's trace id). Left zero, the stage head-samples the
	// read itself — once, wherever the request entered.
	Ctx obs.Ctx
	// Peer marks the owner-side serve of a read another node forwarded
	// (OpPeerRead): it is counted and spanned as a peer serve and is not
	// admitted or charged here — the requester's node is where its tenant
	// lives.
	Peer bool
}

// Reader is the read interception point. A Stage is one; so is the cluster
// fabric in front of it, and the socket server serves whichever it is given.
// The PlanPos is the plan entry the read consumed (zero for a bypass, and
// for every read a fabric routed).
type Reader interface {
	Read(req ReadRequest) (storage.Data, PlanPos, error)
}

// TenantGate is the per-request admission hook the serving path consults
// when multi-tenant QoS is enabled (internal/tenancy implements it; the
// interface lives here so core does not depend on the policy package).
// Admit throttles (may block) or sheds (typed retryable error) before the
// read executes; ObserveRead reports the outcome so byte budgets can be
// charged once the payload size is known; ObserveLatency reports the read's
// end-to-end latency (admission wait included) or its shed — the per-tenant
// SLO tracker's feed. TryAdmit is Admit for a read nobody is waiting on
// (read-ahead): it charges the same budget when the tenant could be admitted
// right now and otherwise just says no — it never blocks and a refusal is
// not a shed.
type TenantGate interface {
	Admit(tenant string) error
	TryAdmit(tenant string) bool
	ObserveRead(tenant string, bytes int64, err error)
	ObserveLatency(tenant string, latency time.Duration, shed bool)
}

// StageStats is the monitoring snapshot exported through the stage's
// control interface (paper §III-A module three).
type StageStats struct {
	Now time.Duration

	// Request-path counters.
	Reads    int64 // total intercepted reads
	Hits     int64 // served from the prefetch buffer
	Bypasses int64 // fell through to backend storage
	Errors   int64 // reads that returned an error
	Shed     int64 // reads rejected at admission by the tenant gate

	// ThrottleWait is cumulative time reads spent blocked in the tenant
	// admission gate before executing — the gate's contribution to the
	// attribution split (always on, zero without a gate).
	ThrottleWait time.Duration

	// Socket read-ahead (DESIGN.md §19). ReadAheadSamples counts samples
	// served by TakeAhead — pushed to a connection behind the reply it asked
	// for; each is also one of Reads and Hits. ReadAheadWasted counts pushed
	// samples a client reported dropping unread (mispredictions).
	ReadAheadSamples int64
	ReadAheadWasted  int64

	// Socket read payloads: ArenaPayloads were read by the client where
	// the producer put them, in the server's shared arena (DESIGN.md §29);
	// InlinePayloads rode the socket — on connections without the arena,
	// or not in it.
	ArenaPayloads  int64
	InlinePayloads int64

	// Producer state.
	QueueLen         int
	TargetProducers  int
	RunningProducers int
	PrefetchedFiles  int64
	ReadErrors       int64

	// StorageBusy is cumulative producer time inside backend reads — the
	// attribution denominator context. It is StorageReadLatency.Sum: a read
	// counts once it completes, so one still in flight is not in it yet.
	StorageBusy time.Duration
	// TraceSampling is the tracer's current head-sampling probability
	// (zero when no tracer is attached).
	TraceSampling float64
	// StorageReadLatency is the producer-observed backend read latency
	// histogram (Prometheus-renderable).
	StorageReadLatency metrics.HistogramSnapshot

	Buffer BufferStats

	// Plan reflects the plan manager: epoch lifecycle and claim activity.
	Plan PlanStats

	// Pool reflects the sample buffer pool (zero-valued when pooling is
	// off). PoolEnabled disambiguates "disabled" from "enabled but idle".
	Pool        mempool.Stats
	PoolEnabled bool

	// Resilience and Tiering are the storage chain's parts of the snapshot,
	// filled in by StageConfig.ChainStats (zero-valued without those
	// layers); TieringEnabled disambiguates "no memory hierarchy" from
	// "idle". Degraded is the signal the autotuner watches to back off
	// producers while the circuit breaker sheds load. Riding StageStats means
	// the chain's numbers cross the IPC Stats call unchanged.
	Resilience     storage.ResilienceStats
	Tiering        tiering.Stats
	TieringEnabled bool
}

// TierEnabled reports whether the memory hierarchy has a fast tier: budget
// beyond the shared cache's recency window.
func (s StageStats) TierEnabled() bool {
	return s.TieringEnabled && s.Tiering.Capacity > s.Tiering.Window
}

// CacheEnabled reports whether the memory hierarchy has a shared cache: a
// recency window.
func (s StageStats) CacheEnabled() bool {
	return s.TieringEnabled && s.Tiering.Window > 0
}

// Attribution splits the consumer time of the interval since prev — the
// zero StageStats for everything since the stage started — by cause, over
// consumers consumer threads or processes. It is the one place a snapshot
// becomes attribution input.
func (s StageStats) Attribution(prev StageStats, consumers int) obs.Attribution {
	return obs.Attribute(obs.AttributionInput{
		Window:       s.Now - prev.Now,
		Consumers:    consumers,
		ConsumerWait: s.Buffer.ConsumerWait - prev.Buffer.ConsumerWait,
		StorageWait:  s.Buffer.ConsumerWaitStorage - prev.Buffer.ConsumerWaitStorage,
		BufferWait:   s.Buffer.ConsumerWaitBufferFull - prev.Buffer.ConsumerWaitBufferFull,
		CacheWait:    s.Tiering.WaitTime - prev.Tiering.WaitTime,
		TierWait:     (s.Tiering.PromoteTime + s.Tiering.DecodeTime) - (prev.Tiering.PromoteTime + prev.Tiering.DecodeTime),
		ThrottleWait: s.ThrottleWait - prev.ThrottleWait,
		StorageBusy:  s.StorageBusy - prev.StorageBusy,
		ProducerPark: s.Buffer.ProducerWait - prev.Buffer.ProducerWait,
	})
}

// Stage is one PRISMA data-plane stage: the parallel-prefetch optimization
// object in front of backend storage — its producers (prefetcher.go), its
// bounded buffer and its plan manager — a POSIX-style Read interception
// point, and the control interface (Stats / SetProducers /
// SetBufferCapacity / epochs). The storage optimizations below it are the
// chain.Layers table's rows. NewStage builds it whole from a StageConfig;
// Start launches its producers.
type Stage struct {
	env             conc.Env
	backend         storage.Backend // bypass reads
	producerBackend storage.Backend // producer reads (StageConfig.ProducerBackend)
	cfg             StageConfig
	buffer          *Buffer
	plans           *planManager      // epoch/claim lifecycle (DESIGN.md §12)
	manifest        *dataset.Manifest // its name index is the one the stage resolves in (names.go)
	names           *dataset.Names
	gate            TenantGate // nil when multi-tenant QoS is off

	mu      conc.Mutex
	target  int // desired t
	running int // producers currently alive
	nextID  int
	closed  bool
	// retire mirrors closed || running > target, stored under mu whenever
	// one of them changes, so producers check it per run without mu.
	retire atomic.Bool

	takeDL atomic.Int64 // consumer take deadline in ns (0 = none)

	readLat      *metrics.BucketedHistogram // producer-observed storage read latency
	prefetched   *metrics.Counter
	readErrors   *metrics.Counter
	reads        *metrics.Counter
	hits         *metrics.Counter
	bypasses     *metrics.Counter
	errors       *metrics.Counter
	shed         *metrics.Counter
	throttleWait *metrics.Counter // nanoseconds blocked in gate.Admit
	aheadSamples *metrics.Counter
	aheadWasted  *metrics.Counter
	inArena      *metrics.Counter
	inlined      *metrics.Counter
}

// NewStage builds (but does not start) a stage over backend and the dataset
// manifest m. The manifest's flat index is the stage's one name table: a
// plan naming a file outside it fails SubmitEpoch and issues no epoch, and
// an unplanned read of one fails with storage.NotExistError before any
// storage layer sees it. A listed name reaches the backend as the
// manifest's own string with its position (storage.Request.Slot), so the
// leaf need not look it up again.
func NewStage(env conc.Env, backend storage.Backend, m *dataset.Manifest, cfg StageConfig) (*Stage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, errors.New("core: stage needs a dataset manifest")
	}
	s := &Stage{
		env:             env,
		backend:         backend,
		producerBackend: backend,
		cfg:             cfg,
		buffer:          NewShardedBuffer(env, cfg.InitialBufferCapacity, cfg.BufferAccessCost, cfg.BufferShards),
		plans:           newPlanManager(env, m.Names()),
		manifest:        m,
		names:           m.Names(),
		readLat:         metrics.NewBucketedHistogram(env, nil),
		prefetched:      metrics.NewCounter(env),
		readErrors:      metrics.NewCounter(env),
		reads:           metrics.NewCounter(env),
		hits:            metrics.NewCounter(env),
		bypasses:        metrics.NewCounter(env),
		errors:          metrics.NewCounter(env),
		shed:            metrics.NewCounter(env),
		throttleWait:    metrics.NewCounter(env),
		aheadSamples:    metrics.NewCounter(env),
		aheadWasted:     metrics.NewCounter(env),
		inArena:         metrics.NewCounter(env),
		inlined:         metrics.NewCounter(env),
	}
	if cfg.ProducerBackend != nil {
		s.producerBackend = cfg.ProducerBackend
	}
	s.mu = env.NewMutex()
	s.takeDL.Store(int64(cfg.TakeDeadline))
	s.buffer.SetTracer(cfg.Tracer)
	// Epoch-cancellation awareness: rejected puts and woken consumers both
	// resolve through the plan manager (shard → plan lock order, §12).
	s.buffer.SetEpochCancelled(s.plans.cancelledEpoch)
	s.buffer.SetClaimAt(s.plans.claimAt)
	return s, nil
}

// Tracer exposes the attached tracer (nil when tracing is off).
func (s *Stage) Tracer() *obs.Tracer { return s.cfg.Tracer }

// BufferPool exposes the configured pool (nil when pooling is off).
func (s *Stage) BufferPool() *mempool.Pool { return s.cfg.BufferPool }

// ParkBound reports how many samples the stage holds at most outside its
// readers — the prefetch buffer at its largest capacity, plus one read in
// flight per producer — and the size of the largest sample its manifest
// lists: the socket server sizes its shared arena by them (DESIGN.md §29).
func (s *Stage) ParkBound() (samples int, largest int64) {
	return s.cfg.MaxBufferCapacity + s.cfg.MaxProducers, s.manifest.MaxSize()
}

// SetTraceSampling adjusts the tracer's head-sampling probability at
// runtime (control interface). No-op without a tracer.
func (s *Stage) SetTraceSampling(p float64) { s.cfg.Tracer.SetSampling(p) }

// Read is the POSIX interception point: the DL framework's read/pread calls
// land here (the TensorFlow integration swaps its file-system backend's
// pread for this call; the PyTorch integration forwards over a UNIX
// socket). It is the stage's only read: the head-sampling decision is drawn
// once, here, unless the request already carries a sampled context (so
// throttle spans share the read's trace); then admission (throttle or typed
// shed — before any stage or plan state changes, so a shed read is safely
// retryable), then the serve, then the outcome report that
// charges the tenant's byte budget and feeds its SLO tracker. Without a gate
// — or for a peer serve, which the requester's node accounts for — it is
// the serve alone.
func (s *Stage) Read(req ReadRequest) (storage.Data, PlanPos, error) {
	if !req.Ctx.Sampled {
		req.Ctx = s.cfg.Tracer.StartTrace()
	}
	if s.gate == nil || req.Peer {
		return s.serve(req)
	}
	start := s.env.Now()
	if err := s.gate.Admit(req.Tenant); err != nil {
		s.shed.Inc()
		now := s.env.Now()
		if wait := now - start; wait > 0 {
			s.throttleWait.Add(int64(wait))
		}
		if req.Ctx.Sampled {
			s.cfg.Tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageTenantShed, Name: req.Name, At: start, Latency: now - start, Error: err.Error()})
		}
		s.gate.ObserveLatency(req.Tenant, now-start, true)
		return storage.Data{}, PlanPos{}, err
	}
	if wait := s.env.Now() - start; wait > 0 {
		s.throttleWait.Add(int64(wait))
		if req.Ctx.Sampled {
			s.cfg.Tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageTenantThrottle, Name: req.Name, At: start, Latency: wait})
		}
	}
	data, at, err := s.serve(req)
	s.gate.ObserveRead(req.Tenant, data.Size, err)
	s.gate.ObserveLatency(req.Tenant, s.env.Now()-start, false)
	return data, at, err
}

// serve answers an admitted, sampling-decided request from the buffer when
// it is planned, and from the backend otherwise. The name resolves once,
// here; a listed name reaches the backend as the table's own string, and an
// unlisted one reaches nothing.
//
// Claim-or-bypass: the existence check and the exclusive hold on a plan
// entry happen in one plan-manager critical section, so two consumers
// racing one multiplicity-1 entry can never both commit to waiting — the
// loser's claim fails and it bypasses to the backend like any unplanned
// read (the Planned→Take TOCTOU hang is structurally impossible). The
// request's trace context flows into the buffer so the Take wait is
// recorded against the right trace, and a delivered read reports the
// position of the plan entry it consumed.
func (s *Stage) serve(req ReadRequest) (storage.Data, PlanPos, error) {
	s.reads.Inc()
	slot, listed := s.names.Slot(req.Name)
	if !listed {
		s.bypasses.Inc()
		s.errors.Inc()
		return storage.Data{}, PlanPos{}, &storage.NotExistError{Name: req.Name}
	}
	if claim, ok := s.plans.claim(int32(slot)); ok {
		it, err := s.buffer.Take(claim.PlanPos, TakeOptions{Ctx: req.Ctx, Deadline: time.Duration(s.takeDL.Load())})
		if err != nil {
			if errors.Is(err, ErrEpochCancelled) {
				s.plans.claimDropped(claim)
			} else {
				// Deadline or shutdown: the sample may still arrive, so
				// the entry goes back to its epoch for a later read to
				// claim.
				s.plans.unclaim(claim)
			}
			s.errors.Inc()
			return storage.Data{}, PlanPos{}, err
		}
		s.plans.deliver(claim)
		if it.Err != nil {
			s.errors.Inc()
			return storage.Data{}, PlanPos{}, it.Err
		}
		// Evict-on-read: the Take transferred the buffer's reference to
		// us, and returning the Data passes it on to the consumer.
		s.hits.Inc()
		return storage.Data{Name: it.Name, Size: it.Size, Bytes: it.Bytes, Ref: it.Ref}, claim.PlanPos, nil
	}
	s.bypasses.Inc()
	resp, err := s.backend.Read(storage.Request{Name: s.names.Name(slot), Ctx: req.Ctx, Slot: slot + 1})
	if err != nil {
		s.errors.Inc()
		return storage.Data{}, PlanPos{}, err
	}
	return resp.Data, PlanPos{}, nil
}

// SetTenantGate attaches the multi-tenant admission gate. Call before
// traffic starts; with a nil gate (the default) Read admits everything and
// observes nothing. It is the stage's one construction-time setter, because
// the gate is built over the stage: the tenancy manager's load probe reads
// Stats, and its SLO hook records into the controller, which actuates this
// stage.
func (s *Stage) SetTenantGate(g TenantGate) { s.gate = g }

// Name resolves a name still in its wire bytes to the manifest's own string
// for it, without allocating: ok is false for a name the manifest does not
// list.
func (s *Stage) Name(b []byte) (string, bool) {
	slot, ok := s.names.SlotBytes(b)
	if !ok {
		return "", false
	}
	return s.names.Name(slot), true
}

// TakeAhead serves the plan entry at position at on behalf of tenant if —
// and only if — that costs no waiting: the entry is still the next
// claimable one for its name, its sample is parked in the prefetch buffer
// and no larger than maxBytes (<= 0: unbounded), and the tenant gate admits
// it without blocking. Then it is charged and counted exactly like the
// Read it stands in for (a read and a hit, the plan entry
// delivered, the tenant's request and byte budgets, its SLO feed); a
// pushed sample keeps its plan-entry trace. ok=false means nothing was
// consumed and, but for one case, nothing charged: the admission token is
// spent before the irreversible take, so a sample that vanishes between
// the look and the take (a racing read of a duplicate name) costs the
// tenant that one token. Without a gate there is no token, and the take
// itself checks the entry under the sample's shard lock.
func (s *Stage) TakeAhead(tenant string, at PlanPos, maxBytes int64) (storage.Data, bool) {
	var start time.Duration
	if s.gate != nil {
		start = s.env.Now()
		if _, ok := s.plans.nameAt(at); !ok || !s.buffer.parked(at, maxBytes) || !s.gate.TryAdmit(tenant) {
			return storage.Data{}, false
		}
	}
	it, err := s.buffer.Take(at, TakeOptions{NoWait: true, MaxBytes: maxBytes})
	if err != nil {
		return storage.Data{}, false
	}
	s.reads.Inc()
	s.hits.Inc()
	s.aheadSamples.Inc()
	if s.gate != nil {
		s.gate.ObserveRead(tenant, it.Size, nil)
		s.gate.ObserveLatency(tenant, s.env.Now()-start, false)
	}
	return storage.Data{Name: it.Name, Size: it.Size, Bytes: it.Bytes, Ref: it.Ref}, true
}

// NoteReadAheadWasted records n pushed samples a client reported dropping
// unread (the IPC server relays the count from the request that carries it).
func (s *Stage) NoteReadAheadWasted(n int64) { s.aheadWasted.Add(n) }

// Planned reports whether at lies inside an active epoch's plan, claimed
// or not: the socket server's test for whether a connection's stride has
// entries left (DESIGN.md §29).
func (s *Stage) Planned(at PlanPos) bool { return s.plans.planned(at) }

// NoteReadPayloads records how the payloads of one socket read reply
// crossed: arena read where they were parked, inline on the socket.
func (s *Stage) NoteReadPayloads(arena, inline int64) {
	if arena > 0 {
		s.inArena.Add(arena)
	}
	if inline > 0 {
		s.inlined.Add(inline)
	}
}

// SubmitPlan registers an epoch's shuffled filename list for the producers.
func (s *Stage) SubmitPlan(names []string) error {
	_, err := s.SubmitEpoch(names)
	return err
}

// SubmitEpoch is SubmitPlan returning the issued epoch id and the number
// of entries actually enqueued. The producers read the names in exactly
// this order. The plan is resolved here, at the same chokepoint as the
// partitioner and the epoch-plan hook, so plans from IPC clients are
// checked like in-process ones.
func (s *Stage) SubmitEpoch(names []string) (PlanResult, error) {
	slots, err := planSlots(s.names, names)
	if err != nil {
		return PlanResult{}, err
	}
	return s.submitSlots(slots, false)
}

// SubmitEpochHeld is SubmitEpoch for a plan whose names are still in their
// wire bytes — they resolve straight to slots, with no string per name, and
// the plan is the caller's again once it returns — that leaves parked
// producers parked until StartProducers; producers already at work pop the
// new entries as usual. The socket server answers a plan before its
// producers start: woken first, a fresh epoch's producers can hold every P
// and CPU filling the buffer for milliseconds before anything polls the
// network for the submitter's reply, and then for its first reads
// (DESIGN.md §29).
func (s *Stage) SubmitEpochHeld(names [][]byte) (PlanResult, error) {
	slots, err := planSlotsBytes(s.names, names)
	if err != nil {
		return PlanResult{}, err
	}
	return s.submitSlots(slots, true)
}

// StartProducers wakes the producers a held submission left parked. Waking
// them with nothing to pop is harmless: they park again.
func (s *Stage) StartProducers() { s.plans.wake() }

// submitSlots registers a resolved plan; held leaves parked producers
// parked (see SubmitEpochHeld). The partitioner sees the plan as the
// table's own strings, the plan hook as the manifest's entries, with the
// live set after it. Registration is one plan-manager critical section:
// every entry becomes claimable at once, so a consumer can never wait on a
// sample of a half-registered plan.
func (s *Stage) submitSlots(slots []int32, held bool) (PlanResult, error) {
	submit := slots
	if s.cfg.PlanPartitioner != nil {
		// Every name resolved above; this pass only finds the subset's slots.
		submit, _ = planSlots(s.names, s.cfg.PlanPartitioner(slotNames(s.names, slots)))
	}
	at := s.env.Now()
	id, err := s.plans.register(submit, held)
	if err != nil {
		return PlanResult{}, err
	}
	s.recordPlanSpan(obs.StagePlanSubmit, id, at, int64(len(submit)))
	if s.cfg.EpochPlanHook != nil {
		s.cfg.EpochPlanHook(s.samples(slots), s.samples(s.plans.live()))
	}
	return PlanResult{Epoch: id, Enqueued: len(submit)}, nil
}

// samples returns name slots as the manifest's entries.
func (s *Stage) samples(slots []int32) []dataset.Sample {
	out := make([]dataset.Sample, len(slots))
	for i, slot := range slots {
		out[i] = s.manifest.Sample(int(slot))
	}
	return out
}

// CancelEpoch cancels a submitted plan epoch (control interface):
// unclaimed entries stop being claimable, its unpopped positions are never
// read, its buffered samples are released back to the pool, in-flight
// producer reads are refused at Put, and consumers blocked on its samples
// wake with ErrEpochCancelled. Cancelling a terminal epoch is a no-op; an
// unknown id is ErrUnknownEpoch. It reports how many registered plan
// entries the cancellation removed.
func (s *Stage) CancelEpoch(id EpochID) (int, error) {
	at := s.env.Now()
	removed, err := s.plans.cancel(id)
	if err != nil {
		return 0, err
	}
	// Physical cleanup: the buffered samples' entries were already charged
	// by the cancel sweep or their claims, so only residue of a pruned
	// epoch still needs accounting. The drop also wakes blocked consumers
	// so their cancel predicates re-evaluate.
	s.plans.noteDropped(id, s.buffer.DropWhere(func(it Item) bool { return it.Epoch == id }))
	s.recordPlanSpan(obs.StageEpochCancel, id, at, int64(removed))
	return removed, nil
}

// recordPlanSpan emits a control-plane lifecycle span for an epoch submit
// or cancel, subject to head sampling like any sample trace.
func (s *Stage) recordPlanSpan(stage string, id EpochID, at time.Duration, size int64) {
	ctx := s.cfg.Tracer.StartTrace()
	if !ctx.Sampled {
		return
	}
	s.cfg.Tracer.Record(obs.Span{
		Trace:   ctx.Trace,
		Stage:   stage,
		Name:    fmt.Sprintf("epoch-%d", id),
		At:      at,
		Latency: s.env.Now() - at,
		Size:    size,
	})
}

// Epochs lists the retained plan epochs' statuses in submission order
// (control interface).
func (s *Stage) Epochs() []EpochStatus { return s.plans.statuses() }

// SetTakeDeadline adjusts the consumer take deadline at runtime (control
// interface; 0 = none).
func (s *Stage) SetTakeDeadline(d time.Duration) { s.takeDL.Store(int64(max(d, 0))) }

// Stats snapshots the stage (control interface).
func (s *Stage) Stats() StageStats {
	st := StageStats{
		Now:      s.env.Now(),
		Reads:    s.reads.Value(),
		Hits:     s.hits.Value(),
		Bypasses: s.bypasses.Value(),
		Errors:   s.errors.Value(),
		Shed:     s.shed.Value(),
		QueueLen: s.plans.unpopped(),

		PrefetchedFiles: s.prefetched.Value(),
		ReadErrors:      s.readErrors.Value(),
	}
	s.mu.Lock()
	st.TargetProducers, st.RunningProducers = s.target, s.running
	s.mu.Unlock()
	st.Buffer = s.buffer.Stats()
	st.Plan = s.plans.stats()
	st.StorageReadLatency = s.readLat.Snapshot()
	st.StorageBusy = st.StorageReadLatency.Sum
	st.TraceSampling = s.cfg.Tracer.Sampling()
	if pool := s.cfg.BufferPool; pool != nil {
		st.Pool = pool.Stats()
		st.PoolEnabled = true
	}
	if s.cfg.ChainStats != nil {
		s.cfg.ChainStats(&st)
	}
	st.ThrottleWait = time.Duration(s.throttleWait.Value())
	st.ReadAheadSamples = s.aheadSamples.Value()
	st.ReadAheadWasted = s.aheadWasted.Value()
	st.ArenaPayloads = s.inArena.Value()
	st.InlinePayloads = s.inlined.Value()
	return st
}

// SetBufferCapacity adjusts N (control interface).
func (s *Stage) SetBufferCapacity(n int) { s.buffer.SetCapacity(n) }
