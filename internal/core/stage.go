package core

import (
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
// buffer — fabric, stage, prefetcher — has exactly one read.
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
	Hits     int64 // served by the prefetcher
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

	// Prefetcher state.
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
	// filled in by what SetChainStats installs (zero-valued without those
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
// object in front of backend storage, a POSIX-style Read interception point,
// and the control interface (Stats / SetProducers / SetBufferCapacity). The
// storage optimizations below it are the chain.Layers table's rows.
type Stage struct {
	env       conc.Env
	backend   storage.Backend
	pf        *Prefetcher
	tracer    *obs.Tracer                       // nil-safe; set once via SetTracer before traffic
	pool      *mempool.Pool                     // nil when pooling is off; stats only
	gate      TenantGate                        // nil when multi-tenant QoS is off
	chain     func(*StageStats)                 // nil unless the storage chain reports into the snapshot
	names     *dataset.Names                    // the prefetcher's (names.go)
	epochHook func(plan, live []dataset.Sample) // nil unless a plan observer (memory hierarchy) is attached
	partition func(names []string) []string     // nil unless a plan partitioner (cluster fabric) is attached

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

// NewStage assembles a stage over backend serving planned reads from pf,
// which it requires. The stage resolves names in pf's table — the dataset
// manifest's — so a plan naming a file outside the manifest fails
// SubmitEpoch and issues no epoch, and an unplanned read of one fails with
// storage.NotExistError before any storage layer sees it. A listed name
// reaches the backend as the manifest's own string with its position
// (storage.Request.Slot), so the leaf need not look it up again.
func NewStage(env conc.Env, backend storage.Backend, pf *Prefetcher) *Stage {
	return &Stage{
		env:          env,
		backend:      backend,
		pf:           pf,
		names:        pf.manifest.Names(),
		reads:        metrics.NewCounter(env),
		hits:         metrics.NewCounter(env),
		bypasses:     metrics.NewCounter(env),
		errors:       metrics.NewCounter(env),
		shed:         metrics.NewCounter(env),
		throttleWait: metrics.NewCounter(env),
		aheadSamples: metrics.NewCounter(env),
		aheadWasted:  metrics.NewCounter(env),
		inArena:      metrics.NewCounter(env),
		inlined:      metrics.NewCounter(env),
	}
}

// SetTracer attaches the observability tracer, propagating it to the
// prefetcher and buffer. Call before traffic starts.
func (s *Stage) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.pf.setTracer(t)
}

// Tracer exposes the attached tracer (nil when tracing is off).
func (s *Stage) Tracer() *obs.Tracer { return s.tracer }

// SetBufferPool registers the sample buffer pool so its occupancy and
// hit-rate ride the stage's monitoring snapshot. The pool itself is
// attached to the storage layers that allocate payloads; the stage only
// reports it.
func (s *Stage) SetBufferPool(p *mempool.Pool) { s.pool = p }

// BufferPool exposes the registered pool (nil when pooling is off).
func (s *Stage) BufferPool() *mempool.Pool { return s.pool }

// ParkBound reports how many samples the stage holds at most outside its
// readers — the prefetch buffer at its largest capacity, plus one read in
// flight per producer — and the size of the largest sample its manifest
// lists: the socket server sizes its shared arena by them (DESIGN.md §29).
func (s *Stage) ParkBound() (samples int, largest int64) {
	cfg := s.pf.Config()
	return cfg.MaxBufferCapacity + cfg.MaxProducers, s.pf.manifest.MaxSize()
}

// SetTraceSampling adjusts the tracer's head-sampling probability at
// runtime (control interface). No-op without a tracer.
func (s *Stage) SetTraceSampling(p float64) { s.tracer.SetSampling(p) }

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
		req.Ctx = s.tracer.StartTrace()
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
			s.tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageTenantShed, Name: req.Name, At: start, Latency: now - start, Error: err.Error()})
		}
		s.gate.ObserveLatency(req.Tenant, now-start, true)
		return storage.Data{}, PlanPos{}, err
	}
	if wait := s.env.Now() - start; wait > 0 {
		s.throttleWait.Add(int64(wait))
		if req.Ctx.Sampled {
			s.tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageTenantThrottle, Name: req.Name, At: start, Latency: wait})
		}
	}
	data, at, err := s.serve(req)
	s.gate.ObserveRead(req.Tenant, data.Size, err)
	s.gate.ObserveLatency(req.Tenant, s.env.Now()-start, false)
	return data, at, err
}

// serve answers an admitted, sampling-decided request from the prefetcher
// when it is planned, and from the backend otherwise. The name resolves
// once, here; a listed name reaches the backend as the table's own string,
// and an unlisted one reaches nothing.
func (s *Stage) serve(req ReadRequest) (storage.Data, PlanPos, error) {
	s.reads.Inc()
	slot, listed := s.names.Slot(req.Name)
	if listed {
		if data, at, planned, err := s.pf.read(req, int32(slot)); planned {
			if err != nil {
				s.errors.Inc()
				return storage.Data{}, PlanPos{}, err
			}
			s.hits.Inc()
			return data, at, nil
		}
	}
	s.bypasses.Inc()
	if !listed {
		s.errors.Inc()
		return storage.Data{}, PlanPos{}, &storage.NotExistError{Name: req.Name}
	}
	resp, err := s.backend.Read(storage.Request{Name: s.names.Name(slot), Ctx: req.Ctx, Slot: slot + 1})
	if err != nil {
		s.errors.Inc()
		return storage.Data{}, PlanPos{}, err
	}
	return resp.Data, PlanPos{}, nil
}

// SetTenantGate attaches the multi-tenant admission gate. Call before
// traffic starts; with a nil gate (the default) Read admits everything and
// observes nothing.
func (s *Stage) SetTenantGate(g TenantGate) { s.gate = g }

// SetChainStats registers what the storage chain below the stage adds to
// every snapshot — each of its layers fills in its own part — so breaker
// state, retry pressure and the memory hierarchy ride the stage's monitoring
// snapshot (and hence the IPC Stats round trip) wherever their layers sit.
// Call before traffic starts; nil (the default) leaves those parts
// zero-valued.
func (s *Stage) SetChainStats(f func(*StageStats)) { s.chain = f }

// SetEpochPlanHook registers a callback invoked with every successfully
// submitted epoch plan, as the manifest entries it names — each name the
// manifest's own string with its size — and with the live set: each sample
// the active epochs' plans name (this one's included, as partitioned), once,
// in the order first planned. The stage is the one chokepoint both the
// in-process (Prisma.SubmitEpoch) and IPC (OpSubmitEpoch) submission paths
// share, so hooking here is what lets the memory hierarchy see plans from
// remote data loaders too. Call before traffic starts.
func (s *Stage) SetEpochPlanHook(f func(plan, live []dataset.Sample)) { s.epochHook = f }

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

// SetPlanPartitioner registers a function that narrows every submitted
// epoch plan to the subset this stage should actually prefetch, preserving
// plan order. The cluster fabric installs the consistent-hash ownership
// filter here, so a worker can submit the full shuffled epoch order (the
// clairvoyant signal) to any node while each node prefetches exactly the
// samples it owns. The epoch-plan hook still observes the full plan. Call
// before traffic starts; nil (the default) submits plans unfiltered.
func (s *Stage) SetPlanPartitioner(f func(names []string) []string) { s.partition = f }

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
	pf := s.pf
	var start time.Duration
	if s.gate != nil {
		start = s.env.Now()
		if _, ok := pf.plans.nameAt(at); !ok || !pf.buffer.parked(at, maxBytes) || !s.gate.TryAdmit(tenant) {
			return storage.Data{}, false
		}
	}
	it, err := pf.buffer.Take(at, TakeOptions{NoWait: true, MaxBytes: maxBytes})
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
func (s *Stage) Planned(at PlanPos) bool { return s.pf.plans.planned(at) }

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

// SubmitPlan forwards an epoch's shuffled filename list to the prefetcher.
func (s *Stage) SubmitPlan(names []string) error {
	_, err := s.SubmitEpoch(names)
	return err
}

// SubmitEpoch is SubmitPlan returning the issued epoch id and the number
// of entries actually enqueued (see Prefetcher.SubmitEpoch). The plan is
// resolved here, at the same chokepoint as the epoch-plan hook, so plans
// from IPC clients are checked like in-process ones.
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
func (s *Stage) StartProducers() { s.pf.plans.wake() }

// submitSlots registers a resolved plan. The partitioner sees the plan as
// the table's own strings, the plan hook as the manifest's entries, with the
// live set after it.
func (s *Stage) submitSlots(slots []int32, held bool) (PlanResult, error) {
	submit := slots
	if s.partition != nil {
		// Every name resolved above; this pass only finds the subset's slots.
		submit, _ = planSlots(s.names, s.partition(slotNames(s.names, slots)))
	}
	res, err := s.pf.submit(submit, held)
	if err == nil && s.epochHook != nil {
		s.epochHook(s.samples(slots), s.samples(s.pf.plans.live()))
	}
	return res, err
}

// samples returns name slots as the manifest's entries.
func (s *Stage) samples(slots []int32) []dataset.Sample {
	out := make([]dataset.Sample, len(slots))
	for i, slot := range slots {
		out[i] = s.pf.manifest.Sample(int(slot))
	}
	return out
}

// CancelEpoch cancels a submitted plan epoch (control interface): queued
// entries are dropped, buffered samples released, and blocked consumers
// woken with ErrEpochCancelled. Reports how many plan entries it removed.
func (s *Stage) CancelEpoch(id EpochID) (int, error) { return s.pf.CancelEpoch(id) }

// Epochs lists the retained plan epochs' statuses (control interface).
func (s *Stage) Epochs() []EpochStatus { return s.pf.Epochs() }

// SetTakeDeadline adjusts the consumer take deadline (control interface).
func (s *Stage) SetTakeDeadline(d time.Duration) { s.pf.SetTakeDeadline(d) }

// Stats snapshots the stage (control interface).
func (s *Stage) Stats() StageStats {
	st := StageStats{
		Now:      s.env.Now(),
		Reads:    s.reads.Value(),
		Hits:     s.hits.Value(),
		Bypasses: s.bypasses.Value(),
		Errors:   s.errors.Value(),
		Shed:     s.shed.Value(),
		QueueLen: s.pf.QueueLen(),
	}
	st.TargetProducers, st.RunningProducers = s.pf.Producers()
	st.PrefetchedFiles = s.pf.PrefetchedFiles()
	st.ReadErrors = s.pf.ReadErrors()
	st.Buffer = s.pf.Buffer().Stats()
	st.Plan = s.pf.PlanStats()
	st.StorageReadLatency = s.pf.ReadLatency()
	st.StorageBusy = st.StorageReadLatency.Sum
	st.TraceSampling = s.tracer.Sampling()
	if s.pool != nil {
		st.Pool = s.pool.Stats()
		st.PoolEnabled = true
	}
	if s.chain != nil {
		s.chain(&st)
	}
	st.ThrottleWait = time.Duration(s.throttleWait.Value())
	st.ReadAheadSamples = s.aheadSamples.Value()
	st.ReadAheadWasted = s.aheadWasted.Value()
	st.ArenaPayloads = s.inArena.Value()
	st.InlinePayloads = s.inlined.Value()
	return st
}

// SetProducers adjusts the prefetcher's t (control interface).
func (s *Stage) SetProducers(n int) { s.pf.SetProducers(n) }

// SetBufferCapacity adjusts the prefetcher's N (control interface).
func (s *Stage) SetBufferCapacity(n int) { s.pf.Buffer().SetCapacity(n) }

// Close shuts down the prefetcher.
func (s *Stage) Close() { s.pf.Close() }
