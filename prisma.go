package prisma

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/httpadmin"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// Prisma is one data-plane stage plus its control plane, serving a local
// dataset directory. It is safe for concurrent use.
type Prisma struct {
	env         *conc.Real
	manifest    *dataset.Manifest
	stage       *core.Stage
	reader      core.Reader // what every read goes through: the fabric when clustered, else the stage
	ctl         *control.Controller
	server      *ipc.Server
	tracer      *obs.Tracer
	tenants     *tenancy.Manager // nil unless Options.Tenancy.Enable
	control     *control.Table   // every runtime knob, for every transport
	fabric      *distrib.Fabric  // nil unless Options.Cluster.Enable
	enablePprof bool
	// flush is what Close writes once the data plane is quiet: the I/O
	// trace, the spans.
	flush []func() error

	teardown  closers
	closeOnce sync.Once
}

// closers is the ordered teardown of everything an instance brought up: each
// layer pushes its closer as it comes up, and run undoes them newest first,
// exactly once — whether from Close or from an Open that failed part-way, so
// a late failure cannot leak a layer an early one would have closed.
type closers struct {
	mu  sync.Mutex // ServeUnix may push while Close runs
	fns []func() error
}

// push registers f to run before everything pushed so far.
func (c *closers) push(f func() error) {
	c.mu.Lock()
	c.fns = append(c.fns, f)
	c.mu.Unlock()
}

// run calls every pushed closer in reverse order and reports the first
// error; the stack is empty afterwards, so a second run does nothing.
func (c *closers) run() error {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	var first error
	for i := len(fns) - 1; i >= 0; i-- {
		if err := fns[i](); first == nil {
			first = err
		}
	}
	return first
}

// noErr adapts a closer that reports nothing.
func noErr(f func()) func() error {
	return func() error { f(); return nil }
}

// Stats is the public monitoring snapshot (the stage's control-interface
// view).
type Stats struct {
	Reads           int64
	Hits            int64
	Bypasses        int64
	Errors          int64
	PrefetchedFiles int64
	ReadErrors      int64
	QueueLen        int
	Producers       int
	BufferLen       int
	BufferCapacity  int
	BufferShards    int
	ConsumerWait    time.Duration
	ProducerWait    time.Duration

	// Attribution inputs: how the consumer wait splits by cause, plus the
	// producers' cumulative storage time and the trace-sampling knob.
	// StorageBusy is the sum of the producers' backend read intervals; a
	// read still in flight counts once it completes.
	ConsumerWaitStorage    time.Duration
	ConsumerWaitBufferFull time.Duration
	StorageBusy            time.Duration
	TraceSampling          float64

	// Resilience telemetry (zero-valued when DisableResilience is set).
	Retries      int64  // backend read attempts beyond the first
	BreakerOpens int64  // times the circuit breaker tripped open
	BreakerState string // "closed", "open", or "half-open" ("" when off)
	Degraded     bool   // breaker not closed: the backend is shedding load

	// Buffer-pool telemetry (zero-valued when BufferPool.Disable is set).
	PoolEnabled     bool
	PoolGets        int64   // buffers leased since Open
	PoolHitRate     float64 // fraction of leases served by recycling
	PoolOutstanding int64   // leases currently live (leak indicator)
	PoolFreeBuffers int     // recycled buffers parked in the pool
	PoolFreeBytes   int64   // bytes parked in the pool
	// The socket server's shared arena, which the pool carves its buffers
	// from (DESIGN.md §29): its size, and how much of it is carved. Zero
	// without one.
	PoolArenaBytes       int64
	PoolArenaCarvedBytes int64

	// Memory-hierarchy telemetry. The fast tier and the shared cache are one
	// layer with one budget, so with both configured the Cache* and Tier*
	// fields are two views of the same counters: Cache* keeps the names the
	// shared cache reported under (a hit is any read served without its own
	// device read, joined reads included), Tier* the tier's. Cache* is
	// zero-valued unless Tenancy.SharedCacheBytes is set, Tier* unless
	// Tiering.Enable. Rides the stage snapshot, so remote Client.Stats sees
	// it too.
	CacheEnabled     bool
	CacheHits        int64
	CacheMisses      int64
	CacheWaits       int64 // reads that joined another tenant's in-flight device read
	CacheEvictions   int64
	CacheDeviceReads int64 // reads that actually hit the backend
	CacheUsedBytes   int64
	CacheResidents   int
	CacheWaitTime    time.Duration // cumulative time joined reads spent waiting on the device read

	TierEnabled            bool
	TierFastHits           int64 // reads served from a resident
	TierSlowReads          int64 // reads that went to the backend themselves
	TierPromotions         int64
	TierEvictions          int64
	TierDeclined           int64 // admissions refused because no resident was strictly colder: a full, stable tier, not a broken one
	TierPrefetchPromotions int64
	TierPrefetchSkips      int64
	TierUsedBytes          int64 // physical (compressed) occupancy
	TierLogicalBytes       int64 // decoded volume those bytes represent
	TierCapacityBytes      int64 // the one budget: Tiering.CapacityBytes + Tenancy.SharedCacheBytes
	TierResidents          int
	TierEncoded            int // residents stored LZ-encoded: the plans being read did not fit the budget raw, or none was submitted
	TierTrackedNames       int
	TierAccessDecays       int64
	TierPromoteTime        time.Duration // cumulative time spent admitting samples into the tier
	TierDecodeTime         time.Duration // cumulative time spent decompressing tier hits

	// Tenancy telemetry (zero-valued unless Tenancy.Enable).
	TenantsShed  int64         // reads refused at admission with ErrOverloaded
	ThrottleWait time.Duration // cumulative time reads spent queued at the admission gate

	// Socket read-ahead telemetry (zero-valued until a socket client reads
	// a plan with a regular stride).
	ReadAheadSamples int64 // samples sent to a client behind the reply it asked for (each also a read and a hit)
	ReadAheadWasted  int64 // pushed samples clients reported dropping unread

	// Socket payload telemetry: how read payloads crossed to socket
	// clients (DESIGN.md §29).
	ArenaPayloads  int64 // read by the client where the producer put them, in the server's shared arena
	InlinePayloads int64 // written to the socket: no arena on the connection, or not in it

	// Plan-lifecycle telemetry (the epoch-aware plan manager).
	EpochsSubmitted int64 // plan epochs submitted since Open
	EpochsCancelled int64 // plan epochs cancelled
	EpochsLive      int   // epochs currently active
	PlanPending     int   // registered plan entries not yet claimed
	PlanClaims      int   // consumer claims awaiting a buffered sample
	PlanDelivered   int64 // plan entries delivered to consumers
	PlanDropped     int64 // plan entries dropped by cancellation
}

// Attribution is the critical-path latency breakdown: how consumer time
// divides between waiting on storage, waiting on buffer capacity, the
// shared cache (coalesced fetches), the fast tier (promotion and decode),
// the tenant admission gate, IPC overhead, and actually consuming. The
// shares sum to 1.
type Attribution struct {
	Window          time.Duration
	Consumers       int
	StorageShare    float64
	BufferFullShare float64
	CacheShare      float64
	TierShare       float64
	ThrottleShare   float64
	IPCShare        float64
	ConsumerShare   float64
	ConsumerWait    time.Duration
	StorageWait     time.Duration
	BufferWait      time.Duration
	CacheWait       time.Duration
	TierWait        time.Duration
	ThrottleWait    time.Duration
}

func attributionFrom(a obs.Attribution) Attribution {
	return Attribution{
		Window:          a.Window,
		Consumers:       a.Consumers,
		StorageShare:    a.StorageShare,
		BufferFullShare: a.BufferFullShare,
		CacheShare:      a.CacheShare,
		TierShare:       a.TierShare,
		ThrottleShare:   a.ThrottleShare,
		IPCShare:        a.IPCShare,
		ConsumerShare:   a.ConsumerShare,
		ConsumerWait:    a.ConsumerWait,
		StorageWait:     a.StorageWait,
		BufferWait:      a.BufferWait,
		CacheWait:       a.CacheWait,
		TierWait:        a.TierWait,
		ThrottleWait:    a.ThrottleWait,
	}
}

// statsFrom maps the internal stage snapshot to the public view.
func statsFrom(s core.StageStats) Stats {
	// The tier and the shared cache are one struct; each view stays
	// zero-valued unless its own option is on.
	var tier, cache tiering.Stats
	if s.TierEnabled() {
		tier = s.Tiering
	}
	if s.CacheEnabled() {
		cache = s.Tiering
	}
	return Stats{
		Reads:           s.Reads,
		Hits:            s.Hits,
		Bypasses:        s.Bypasses,
		Errors:          s.Errors,
		PrefetchedFiles: s.PrefetchedFiles,
		ReadErrors:      s.ReadErrors,
		QueueLen:        s.QueueLen,
		Producers:       s.TargetProducers,
		BufferLen:       s.Buffer.Len,
		BufferCapacity:  s.Buffer.Capacity,
		BufferShards:    s.Buffer.Shards,
		ConsumerWait:    s.Buffer.ConsumerWait,
		ProducerWait:    s.Buffer.ProducerWait,

		ConsumerWaitStorage:    s.Buffer.ConsumerWaitStorage,
		ConsumerWaitBufferFull: s.Buffer.ConsumerWaitBufferFull,
		StorageBusy:            s.StorageBusy,
		TraceSampling:          s.TraceSampling,

		Retries:      s.Resilience.Retries,
		BreakerOpens: s.Resilience.BreakerOpens,
		BreakerState: s.Resilience.State,
		Degraded:     s.Resilience.Degraded,

		PoolEnabled:     s.PoolEnabled,
		PoolGets:        s.Pool.Gets,
		PoolHitRate:     s.Pool.HitRate,
		PoolOutstanding: s.Pool.Outstanding,
		PoolFreeBuffers: s.Pool.FreeBuffers,
		PoolFreeBytes:   s.Pool.FreeBytes,

		PoolArenaBytes:       s.Pool.ArenaCapacity,
		PoolArenaCarvedBytes: s.Pool.ArenaCarved,

		TierEnabled:            s.TierEnabled(),
		TierFastHits:           tier.FastHits,
		TierSlowReads:          tier.SlowReads,
		TierPromotions:         tier.Promotions,
		TierEvictions:          tier.Evictions,
		TierDeclined:           tier.Declined,
		TierPrefetchPromotions: tier.PrefetchPromotions,
		TierPrefetchSkips:      tier.PrefetchSkips,
		TierUsedBytes:          tier.FastUsed,
		TierLogicalBytes:       tier.FastLogical,
		TierCapacityBytes:      tier.Capacity,
		TierResidents:          tier.Residents,
		TierEncoded:            tier.Encoded,
		TierTrackedNames:       tier.TrackedNames,
		TierAccessDecays:       tier.AccessDecays,
		TierPromoteTime:        tier.PromoteTime,
		TierDecodeTime:         tier.DecodeTime,

		CacheEnabled:     s.CacheEnabled(),
		CacheHits:        cache.FastHits + cache.Waits,
		CacheMisses:      cache.SlowReads,
		CacheWaits:       cache.Waits,
		CacheEvictions:   cache.Evictions,
		CacheDeviceReads: cache.SlowReads,
		CacheUsedBytes:   cache.FastUsed,
		CacheResidents:   cache.Residents,
		CacheWaitTime:    cache.WaitTime,

		TenantsShed:  s.Shed,
		ThrottleWait: s.ThrottleWait,

		ReadAheadSamples: s.ReadAheadSamples,
		ReadAheadWasted:  s.ReadAheadWasted,
		ArenaPayloads:    s.ArenaPayloads,
		InlinePayloads:   s.InlinePayloads,

		EpochsSubmitted: s.Plan.EpochsSubmitted,
		EpochsCancelled: s.Plan.EpochsCancelled,
		EpochsLive:      s.Plan.EpochsLive,
		PlanPending:     s.Plan.EntriesPending,
		PlanClaims:      s.Plan.ClaimsInFlight,
		PlanDelivered:   s.Plan.Delivered,
		PlanDropped:     s.Plan.Dropped,
	}
}

// chainConfig maps opts onto the rows of the storage chain (chain.Layers).
func chainConfig(o Options) chain.Config {
	cfg := chain.Config{TraceFile: o.TraceFile, WarmNextEpoch: o.Tiering.Enable && o.Tiering.PrefetchNextEpoch}
	// One budget, the sum of the tier's and the shared cache's. The shared
	// cache's part is the recency window, which keeps every miss raw and
	// LRU, so a job trailing another over the same dataset finds what it
	// just read; the tier's part follows the tier's promotion threshold,
	// admission rule and compression.
	h := &cfg.Hierarchy
	h.PromoteAfter = 1
	if o.Tenancy.Enable {
		h.FastCapacity, h.Window = o.Tenancy.SharedCacheBytes, o.Tenancy.SharedCacheBytes
	}
	if o.Tiering.Enable {
		h.FastCapacity += o.Tiering.CapacityBytes
		h.PromoteAfter = o.Tiering.PromoteAfter
		h.MaxTracked = o.Tiering.MaxTrackedNames
		h.Compress = o.Tiering.Compress
	}
	if !o.DisableResilience {
		r := storage.DefaultResilienceConfig()
		r.MaxAttempts = o.ReadRetries
		r.BaseBackoff = o.RetryBackoff
		r.ReadDeadline = o.ReadDeadline
		r.BreakerCooldown = o.BreakerCooldown
		r.BreakerThreshold = max(o.BreakerThreshold, 0) // -1: retries without a breaker
		cfg.Resilience = &r
	}
	return cfg
}

// Open builds a PRISMA instance over opts.Dir. The directory is scanned
// once to build the dataset manifest (file names are slash-separated paths
// relative to Dir). On Linux a scanned file stays open from its first read
// until Close — up to half the process's descriptor limit — so a file
// renamed over or deleted after its first read is still served as it was.
func Open(opts Options) (*Prisma, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	manifest, err := dataset.FromDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("prisma: scanning %s: %w", opts.Dir, err)
	}
	if manifest.Len() == 0 {
		return nil, fmt.Errorf("prisma: no files under %s", opts.Dir)
	}
	env := conc.NewReal()
	p := &Prisma{
		env:         env,
		manifest:    manifest,
		enablePprof: opts.EnablePprof,
	}
	// fail abandons a partly built instance: whatever came up is torn down
	// in reverse, as Close would.
	fail := func(err error) (*Prisma, error) {
		_ = p.teardown.run()
		return nil, fmt.Errorf("prisma: %w", err)
	}
	var pool *mempool.Pool
	if !opts.BufferPool.Disable {
		pool = mempool.New(mempool.Config{
			MinSize:     opts.BufferPool.MinSize,
			MaxSize:     opts.BufferPool.MaxSize,
			PerClassCap: opts.BufferPool.PerClassCap,
		})
	}
	// The tracer exists even at sampling 0 so the runtime knob (the control
	// table's sampling key) can turn tracing on without a restart. It is
	// attached before the producers start, so they never race a nil-to-set
	// transition.
	p.tracer = obs.NewTracer(env, obs.TracerOptions{Sampling: opts.TraceSampling})
	leaf, err := storage.NewDirBackend(opts.Dir)
	if err != nil {
		return fail(err)
	}
	p.teardown.push(leaf.Close)
	leaf.SetBufferPool(pool)
	leaf.SetManifest(manifest)
	ch := &chain.Chain{Env: env, Pool: pool, Tracer: p.tracer, Backend: leaf}
	if err := ch.Fold(chainConfig(opts)); err != nil {
		return fail(err)
	}
	p.teardown.push(noErr(ch.Close))
	backend := ch.Backend
	p.flush = []func() error{ch.Flush}
	if opts.SpanFile != "" {
		p.flush = append(p.flush, func() error { return chain.WriteFile(opts.SpanFile, "spans", p.tracer.Export) })
	}
	// The buffer keeps a shard per CPU, up to 16, clamped to N (§V-B: the
	// contention sharding removes grows with concurrent workers).
	stageCfg := core.StageConfig{
		InitialProducers:      opts.InitialProducers,
		MaxProducers:          opts.MaxProducers,
		InitialBufferCapacity: opts.InitialBuffer,
		MaxBufferCapacity:     opts.MaxBuffer,
		BufferShards:          min(runtime.GOMAXPROCS(0), 16),
		TakeDeadline:          opts.ConsumerDeadline,
		Tracer:                p.tracer,
		BufferPool:            pool,
		ChainStats:            ch.Snapshot,
	}
	if ch.WatchesPlans() {
		// The hook sees each plan as the manifest's strings, built per
		// submission; without a watcher nothing is built.
		stageCfg.EpochPlanHook = ch.Plan
	}
	var ring *distrib.Ring
	if opts.Cluster.Enable {
		// Submitted epoch plans are narrowed to this node's ring-owned
		// subsequence before prefetching — clairvoyant placement.
		if ring, err = clusterRing(opts.Cluster); err != nil {
			return fail(err)
		}
		stageCfg.PlanPartitioner = ring.Partitioner(opts.Cluster.NodeID)
	}
	stage, err := core.NewStage(env, backend, manifest, stageCfg)
	if err != nil {
		return fail(err)
	}
	p.teardown.push(noErr(stage.Close))
	p.stage, p.reader = stage, stage
	stage.Start()

	if opts.Cluster.Enable {
		// The fabric sits in front of the stage: reads of ring-owned
		// samples stay local, the rest forward to the owner's buffer (or
		// fail over to the composed backend chain).
		if err := buildFabric(p, opts.Cluster, ring, backend); err != nil {
			return fail(err)
		}
		p.reader = p.fabric
	}
	// The controller is built before the tenancy manager so SLO actions can
	// land in its decision audit log from the manager's first tick onward.
	if !opts.DisableAutoTune {
		pol := control.DefaultPolicy()
		pol.MinProducers = 1
		pol.MaxProducers = opts.MaxProducers
		pol.MinBuffer = 1
		pol.MaxBuffer = opts.MaxBuffer
		initial := control.Tuning{Producers: opts.InitialProducers, BufferCapacity: opts.InitialBuffer}
		ctl, err := control.NewController(env, opts.ControlInterval, stage, control.NewAutotuner(), pol, initial)
		if err != nil {
			return fail(err)
		}
		ctl.Start()
		p.teardown.push(noErr(ctl.Stop))
		p.ctl = ctl
	}
	if opts.Tenancy.Enable {
		mqd := opts.Tenancy.MaxQueueDepth
		if mqd < 0 {
			mqd = 0 // -1 in the public options disables the check
		}
		// The pooled-byte pressure probe estimates the outstanding buffer
		// footprint as live leases times the mean sample size (the pool
		// tracks lease counts, not bytes).
		avgSample := int64(1)
		if n := manifest.Len(); n > 0 {
			if avgSample = manifest.TotalBytes() / int64(n); avgSample < 1 {
				avgSample = 1
			}
		}
		cfg := tenancy.Config{
			Capacity:       opts.Tenancy.Capacity,
			Burst:          opts.Tenancy.Burst,
			TickInterval:   opts.Tenancy.TickInterval,
			DegradedFactor: opts.Tenancy.DegradedFactor,
			MaxQueueDepth:  mqd,
			MaxPooledBytes: opts.Tenancy.MaxPooledBytes,
			MaxRetryAfter:  opts.Tenancy.MaxRetryAfter,
			SLOBoostFactor: opts.Tenancy.SLOBoostFactor,
			Load: func() tenancy.Load {
				s := stage.Stats()
				var pooled int64
				if pool != nil {
					pooled = pool.Outstanding() * avgSample
				}
				return tenancy.Load{
					QueueDepth:  s.QueueLen,
					PooledBytes: pooled,
					Degraded:    s.Resilience.Degraded,
				}
			},
		}
		if p.ctl != nil {
			// Every SLO actuation (breach boost, recovery restore, warn)
			// lands in the stage's decision audit log next to the
			// autotuner's own decisions.
			ctl := p.ctl
			cfg.OnSLOAction = func(act tenancy.SLOAction) {
				ctl.RecordEvent(act.Rule + ":" + act.Tenant)
			}
		}
		mgr, err := tenancy.New(env, cfg)
		if err != nil {
			return fail(err)
		}
		for _, ts := range opts.Tenancy.Tenants {
			if err := mgr.Register(specFrom(ts)); err != nil {
				return fail(err)
			}
		}
		stage.SetTenantGate(mgr)
		mgr.Start()
		p.teardown.push(noErr(mgr.Stop))
		p.tenants = mgr
	}
	p.control = &control.Table{Stage: stage, Tenants: p.tenants}
	return p, nil
}

// specFrom maps the public tenant declaration to the internal spec.
func specFrom(ts TenantSpec) tenancy.Spec {
	spec := tenancy.Spec{
		Name:           ts.Name,
		Weight:         ts.Weight,
		BytesPerSecond: ts.BytesPerSecond,
		Secret:         ts.Secret,
	}
	if ts.SLO != nil {
		spec.SLO = &obs.SLOConfig{
			Quantile:   ts.SLO.Quantile,
			Threshold:  ts.SLO.Threshold,
			ShedBudget: ts.SLO.ShedBudget,
			Window:     ts.SLO.Window,
			WarnBurn:   ts.SLO.WarnBurn,
			BreachBurn: ts.SLO.BreachBurn,
		}
	}
	return spec
}

// Read serves one file through the data plane: planned files come from the
// prefetch buffer (each is served exactly once per plan entry and evicted);
// unplanned files fall through to the filesystem. The returned slice is the
// caller's to keep: under pooling the pooled buffer is copied out and
// returned to the pool here. Allocation-sensitive consumers use ReadSample
// instead, which hands over the pooled buffer itself.
func (p *Prisma) Read(name string) ([]byte, error) {
	return p.ReadAs("", name)
}

// Sample is one zero-copy read result: Bytes aliases a pooled buffer the
// caller must Release when done (after which the bytes may be reused for
// another sample). A Sample from a pool-disabled instance owns a plain
// allocation and Release is a no-op.
type Sample struct {
	Name string
	Size int64
	data storage.Data
}

// Bytes returns the sample payload; valid until Release.
func (s *Sample) Bytes() []byte { return s.data.Bytes }

// Release returns the payload buffer to the pool. Idempotent.
func (s *Sample) Release() { s.data.Release() }

// ReadSample is Read without the defensive copy: the pooled read buffer is
// handed to the caller, who must Release it after consuming the bytes —
// the zero-allocation fast path for in-process consumers.
func (p *Prisma) ReadSample(name string) (*Sample, error) {
	return p.ReadSampleAs("", name)
}

// SubmitPlan shares one epoch's shuffled filename list with the data plane;
// producers read files in exactly this order, ahead of consumption.
func (p *Prisma) SubmitPlan(names []string) error {
	_, _, err := p.SubmitEpoch(names)
	return err
}

// EpochID identifies one submitted plan epoch (ids start at 1).
type EpochID uint64

// Plan-lifecycle errors, matchable with errors.Is.
var (
	// ErrEpochCancelled is returned to readers blocked on a sample whose
	// plan epoch was cancelled while they waited.
	ErrEpochCancelled = core.ErrEpochCancelled
	// ErrConsumerDeadline is returned when a read waited longer than
	// Options.ConsumerDeadline for its planned sample.
	ErrConsumerDeadline = core.ErrTakeDeadline
	// ErrUnknownEpoch is returned by CancelEpoch for an id that was never
	// issued or already aged out of the retained history.
	ErrUnknownEpoch = core.ErrUnknownEpoch
)

// EpochStatus is the monitoring view of one plan epoch.
type EpochStatus struct {
	ID        EpochID
	State     string // "active", "cancelled", or "done"
	Submitted time.Duration
	Total     int   // plan length
	Enqueued  int   // entries that reached the prefetch queue
	Claimed   int64 // claims taken by consumers (cumulative)
	Delivered int64
	Dropped   int64 // entries dropped by cancellation
}

func epochsFrom(eps []core.EpochStatus) []EpochStatus {
	out := make([]EpochStatus, len(eps))
	for i, e := range eps {
		out[i] = EpochStatus{
			ID:        EpochID(e.ID),
			State:     e.State,
			Submitted: e.Submitted,
			Total:     e.Total,
			Enqueued:  e.Enqueued,
			Claimed:   e.Claimed,
			Delivered: e.Delivered,
			Dropped:   e.Dropped,
		}
	}
	return out
}

// SubmitEpoch is SubmitPlan returning the issued epoch id and how many
// entries were enqueued. A plan naming a file not in the scanned dataset is
// rejected whole, over IPC as in-process. Registration is all-or-nothing:
// on error no entry of this plan is claimable and its residue has been
// dropped, so a reader can never block on a sample from a failed
// submission.
func (p *Prisma) SubmitEpoch(names []string) (EpochID, int, error) {
	// The stage's epoch-plan hook (StageConfig.EpochPlanHook, set in Open when
	// Tiering.Compress or Tiering.PrefetchNextEpoch is set) hands the live
	// set to the hierarchy's sizing and the plan to the tier warmer — for
	// this call and for epochs submitted over IPC alike.
	res, err := p.stage.SubmitEpoch(names)
	return EpochID(res.Epoch), res.Enqueued, err
}

// CancelEpoch cancels a submitted plan epoch: its queued entries are
// dropped, buffered samples are released back to the pool, and readers
// blocked on its samples wake with ErrEpochCancelled. Idempotent on
// already-finished epochs; reports how many plan entries were removed.
func (p *Prisma) CancelEpoch(id EpochID) (int, error) {
	return p.stage.CancelEpoch(core.EpochID(id))
}

// Epochs lists the retained plan epochs' statuses in submission order.
func (p *Prisma) Epochs() []EpochStatus { return epochsFrom(p.stage.Epochs()) }

// SetConsumerDeadline adjusts Options.ConsumerDeadline at runtime
// (0 = wait forever).
func (p *Prisma) SetConsumerDeadline(d time.Duration) { p.stage.SetTakeDeadline(d) }

// ShuffledFileList produces the deterministic per-epoch shuffled filename
// list — the artifact the paper's job-script module shares between the
// framework and PRISMA (§IV). Calling it with the same (seed, epoch) in
// the training loop and in SubmitPlan keeps both sides in the same order
// without changing how the framework shuffles.
func (p *Prisma) ShuffledFileList(seed int64, epoch int) []string {
	return p.manifest.EpochFileList(seed, epoch)
}

// Files reports the number of files in the scanned dataset.
func (p *Prisma) Files() int { return p.manifest.Len() }

// TotalBytes reports the scanned dataset volume.
func (p *Prisma) TotalBytes() int64 { return p.manifest.TotalBytes() }

// Stats snapshots the data plane. Each layer of the storage chain
// (internal/chain's table) adds its counters to the stage snapshot, so
// local and remote views agree.
func (p *Prisma) Stats() Stats {
	return statsFrom(p.stage.Stats())
}

// Control applies key=value settings through the stage's control table,
// the one every transport walks: producers (t, an integer >= 1, held to
// MaxProducers), buffer (N, an integer >= 1), sampling (the trace
// probability in [0, 1]) and tenant.NAME.weight / tenant.NAME.bytes (a
// registered tenant's weight and byte budget in bytes/s, finite and > 0).
// Every pair is checked before any is applied: a bad one changes nothing.
func (p *Prisma) Control(settings ...string) error { return p.control.Apply(settings...) }

// SetProducers pins the producer count t (disable AutoTune to keep it).
func (p *Prisma) SetProducers(n int) error { return p.Control(control.Setting("producers", n)) }

// SetBufferCapacity pins the buffer capacity N.
func (p *Prisma) SetBufferCapacity(n int) error { return p.Control(control.Setting("buffer", n)) }

// SetTraceSampling adjusts the lifecycle-trace head-sampling probability
// at runtime.
func (p *Prisma) SetTraceSampling(prob float64) error {
	return p.Control(control.Setting("sampling", prob))
}

// Attribution reports the critical-path latency breakdown accumulated
// since Open: the share of consumer time lost to storage waits, buffer
// capacity, and IPC, with the remainder meaning the data plane kept up.
// consumers is the number of consumer threads/processes (minimum 1).
func (p *Prisma) Attribution(consumers int) Attribution {
	return attributionFrom(p.stage.Stats().Attribution(core.StageStats{}, consumers))
}

// DumpSpans writes the lifecycle spans collected so far as JSON lines
// (the prisma-trace attribute input format).
func (p *Prisma) DumpSpans(w io.Writer) error { return p.tracer.Export(w) }

// ErrOverloaded matches (with errors.Is) the typed, retryable rejection a
// read receives when the server sheds it at admission: the read provably
// did not execute, and the error unwraps to a retry-after hint the client
// backoff honors. Returned only from tenancy-enabled instances.
var ErrOverloaded = tenancy.ErrOverloaded

// TenantStats is one tenant's QoS snapshot.
type TenantStats struct {
	Name         string
	Weight       float64
	GrantedRate  float64 // reads/s granted by the max-min arbiter
	MeasuredRate float64 // demand estimate from the last tick
	Admitted     int64
	Shed         int64
	BytesRead    int64
	Errors       int64
	ByteBudget   float64 // bytes/s, 0 = unmetered
	InDebt       bool

	// SLO fields, meaningful only when HasSLO is set.
	HasSLO             bool
	SLOState           string  // "ok", "warn", or "breach"
	SLOBurnShort       float64 // error-budget burn rate over the short window
	SLOBurnLong        float64 // error-budget burn rate over the long window
	SLOBudgetRemaining float64 // fraction of the long-window budget left
	SLOBoosted         bool    // breach weight boost currently in force
}

// TenantsSnapshot is the control-plane view of every tenant, sorted by
// name.
type TenantsSnapshot struct {
	Overloaded bool
	Capacity   float64
	Tenants    []TenantStats
}

func tenantsFrom(s tenancy.Snapshot) TenantsSnapshot {
	out := TenantsSnapshot{Overloaded: s.Overloaded, Capacity: s.Capacity}
	for _, ts := range s.Tenants {
		pub := TenantStats{
			Name:         ts.Name,
			Weight:       ts.Weight,
			GrantedRate:  ts.GrantedRate,
			MeasuredRate: ts.MeasuredRate,
			Admitted:     ts.Admitted,
			Shed:         ts.Shed,
			BytesRead:    ts.BytesRead,
			Errors:       ts.Errors,
			ByteBudget:   ts.ByteBudget,
			InDebt:       ts.InDebt,
		}
		if ts.SLO != nil {
			pub.HasSLO = true
			pub.SLOState = ts.SLO.State
			pub.SLOBurnShort = ts.SLO.BurnShort
			pub.SLOBurnLong = ts.SLO.BurnLong
			pub.SLOBudgetRemaining = ts.SLO.BudgetRemaining
			pub.SLOBoosted = ts.SLOBoosted
		}
		out.Tenants = append(out.Tenants, pub)
	}
	return out
}

// errTenancyDisabled reports tenancy API use on a non-tenant instance.
var errTenancyDisabled = errors.New("prisma: tenancy not enabled (set Options.Tenancy.Enable)")

// RegisterTenant adds a tenant at runtime.
func (p *Prisma) RegisterTenant(spec TenantSpec) error {
	if p.tenants == nil {
		return errTenancyDisabled
	}
	if err := spec.SLO.validate(spec.Name); err != nil {
		return err
	}
	return p.tenants.Register(specFrom(spec))
}

// SetTenantSLO attaches (or replaces) a tenant's latency objective at
// runtime. Burn-rate tracking restarts from an empty window.
func (p *Prisma) SetTenantSLO(name string, slo SLOOptions) error {
	if p.tenants == nil {
		return errTenancyDisabled
	}
	if err := (&slo).validate(name); err != nil {
		return err
	}
	return p.tenants.SetSLO(name, obs.SLOConfig{
		Quantile:   slo.Quantile,
		Threshold:  slo.Threshold,
		ShedBudget: slo.ShedBudget,
		Window:     slo.Window,
		WarnBurn:   slo.WarnBurn,
		BreachBurn: slo.BreachBurn,
	})
}

// ClearTenantSLO detaches a tenant's latency objective, restoring the
// tenant's base arbitration weight if a breach boost was in force.
func (p *Prisma) ClearTenantSLO(name string) error {
	if p.tenants == nil {
		return errTenancyDisabled
	}
	p.tenants.ClearSLO(name)
	return nil
}

// UnregisterTenant removes a tenant; its share flows back to the rest at
// the next arbitration tick. The default tenant cannot be removed.
func (p *Prisma) UnregisterTenant(name string) error {
	if p.tenants == nil {
		return errTenancyDisabled
	}
	return p.tenants.Unregister(name)
}

// SetTenant adjusts a tenant's arbitration weight and/or byte budget at
// runtime (zero leaves the respective knob unchanged).
func (p *Prisma) SetTenant(name string, weight, bytesPerSecond float64) error {
	return p.Control(control.TenantSettings(name, weight, bytesPerSecond)...)
}

// Tenants snapshots per-tenant QoS statistics.
func (p *Prisma) Tenants() (TenantsSnapshot, error) {
	if p.tenants == nil {
		return TenantsSnapshot{}, errTenancyDisabled
	}
	return tenantsFrom(p.tenants.Stats()), nil
}

// ReadAs is Read attributed to (and admission-controlled for) the named
// tenant — the in-process equivalent of a socket client that said Hello.
// Under overload an over-budget tenant gets ErrOverloaded instead of
// queueing.
func (p *Prisma) ReadAs(tenant, name string) ([]byte, error) {
	data, _, err := p.reader.Read(core.ReadRequest{Name: name, Tenant: tenant})
	if err != nil {
		return nil, err
	}
	if data.Ref == nil {
		return data.Bytes, nil
	}
	out := make([]byte, len(data.Bytes))
	copy(out, data.Bytes)
	data.Release()
	return out, nil
}

// ReadSampleAs is ReadSample attributed to the named tenant.
func (p *Prisma) ReadSampleAs(tenant, name string) (*Sample, error) {
	data, _, err := p.reader.Read(core.ReadRequest{Name: name, Tenant: tenant})
	if err != nil {
		return nil, err
	}
	return &Sample{Name: data.Name, Size: data.Size, data: data}, nil
}

// adminConfig assembles the httpadmin sources this instance can serve —
// shared by AdminHandler and the diagnostic-bundle builder so both
// surfaces expose the same view.
func (p *Prisma) adminConfig() httpadmin.Config {
	cfg := httpadmin.Config{
		EnablePprof: p.enablePprof,
		Tracer:      p.tracer,
		Control:     p.Control,
		Epochs:      p.stage.Epochs,
		CancelEpoch: p.stage.CancelEpoch,
	}
	if p.ctl != nil {
		cfg.Decisions = func() []control.DecisionRecord { return p.ctl.Decisions() }
	}
	if p.tenants != nil {
		mgr := p.tenants
		cfg.Tenants = func() tenancy.Snapshot { return mgr.Stats() }
	}
	if p.fabric != nil {
		fab := p.fabric
		cfg.Cluster = func() distrib.ClusterStats { return fab.Stats() }
	}
	return cfg
}

// Bundle captures the one-shot diagnostic bundle — stats (cache, tiering,
// pool, and plan counters included), latency attribution, per-tenant QoS
// and SLO states, plan epochs, the decision audit log, and recent spans —
// as one JSON document. The same document backs GET /debug/bundle and
// prisma-ctl bundle.
func (p *Prisma) Bundle() ([]byte, error) { return p.snapshot(-1) }

// snapshot is the bundle with at most spans recent spans (< 0: the
// default bound) — what OpGet serves.
func (p *Prisma) snapshot(spans int) ([]byte, error) {
	return json.Marshal(httpadmin.BuildBundle(p.stage, p.adminConfig(), spans))
}

// AdminHandler returns an http.Handler exposing the stage's control
// interface for dashboards and scrapers: GET /healthz, GET /stats (JSON),
// GET /metrics (Prometheus text format), GET /attribution, GET /decisions,
// GET /tenants on tenancy-enabled instances, GET /debug/bundle (one-shot
// diagnostic capture), POST /tuning?KEY=VALUE&… (the control table's keys,
// see Control),
// and (when Options.EnablePprof is set) /debug/pprof/.
func (p *Prisma) AdminHandler() http.Handler {
	return httpadmin.NewWithConfig(p.stage, p.adminConfig())
}

// ServeUnix exposes this stage to other processes over a UNIX domain
// socket — the integration path for multi-process data loaders (§IV's
// PyTorch client/server). Connect with Dial from this package.
//
// The buffer pool is then carved from one shared arena that every client
// maps read-only, with tenants or without, so a socket client copies each
// payload from where the producer read it (DESIGN.md §29). A Sample read
// in-process stays readable after Close until it is released.
func (p *Prisma) ServeUnix(socketPath string) error {
	if p.server != nil {
		return errors.New("prisma: already serving")
	}
	// Socket reads take the same route as in-process ones: p.reader, which
	// under Cluster.Enable is the fabric (ownership routing for OpRead, the
	// owner-side serve for OpPeerRead).
	srv, err := ipc.ServeWithConfig(socketPath, p.stage, p.reader, ipc.ServeConfig{Tenants: p.tenants})
	if err != nil {
		return err
	}
	srv.SetControlSurface(p.snapshot, p.Control)
	p.server = srv
	// The server waits for its handlers, and a handler blocked in a planned
	// take wakes only when the stage closes: the stage goes down first.
	p.teardown.push(func() error {
		p.stage.Close()
		return srv.Close()
	})
	return nil
}

// Close stops the control loop, the socket server (if any), and the data
// plane. Blocked readers are released with an error.
func (p *Prisma) Close() error {
	// Repeated and concurrent calls are safe: the first does the work and
	// reports its error, the others wait for it. Everything Open and
	// ServeUnix brought up goes down newest first; the trace and span files
	// are written once the data plane is quiet.
	var err error
	p.closeOnce.Do(func() {
		err = p.teardown.run()
		for _, flush := range p.flush {
			if ferr := flush(); err == nil {
				err = ferr
			}
		}
	})
	return err
}

// Client is a per-worker-process connection to a PRISMA socket server.
type Client struct {
	c    *ipc.Client
	pool *mempool.Pool // non-nil after EnablePooledReads
}

// Dial connects to a PRISMA server started with ServeUnix (or the
// prisma-server command).
func Dial(socketPath string) (*Client, error) {
	return DialWithOptions(socketPath, DialOptions{})
}

// DialOptions tunes a client connection.
type DialOptions struct {
	// Tenant, when non-empty, is the identity this connection assumes at
	// dial time (equivalent to calling Hello right after Dial). The
	// identity survives transparent reconnects.
	Tenant string
	// Secret authenticates Tenant when the server requires one.
	Secret string
	// OverloadRetries is how many times a shed read is waited out (per
	// the server's retry-after hint) and resent before ErrOverloaded
	// surfaces to the caller (default 0 = surface immediately).
	OverloadRetries int
}

// DialWithOptions is Dial with explicit connection options.
func DialWithOptions(socketPath string, opts DialOptions) (*Client, error) {
	c, err := ipc.DialWithConfig(socketPath, ipc.DialConfig{OverloadRetries: opts.OverloadRetries})
	if err != nil {
		return nil, err
	}
	if opts.Tenant != "" {
		if _, err := c.Hello(opts.Tenant, opts.Secret); err != nil {
			c.Close()
			return nil, err
		}
	}
	return &Client{c: c}, nil
}

// EnablePooledReads gives the client its own buffer pool: ReadSample then
// receives payloads straight off the socket into recycled buffers, and
// Read copies out of them. opts zero value selects the pool defaults.
func (c *Client) EnablePooledReads(opts BufferPoolOptions) {
	if opts.Disable {
		c.c.SetBufferPool(nil)
		c.pool = nil
		return
	}
	c.pool = mempool.New(mempool.Config{
		MinSize:     opts.MinSize,
		MaxSize:     opts.MaxSize,
		PerClassCap: opts.PerClassCap,
	})
	c.c.SetBufferPool(c.pool)
}

// Read requests one file through the remote stage. The returned slice is
// the caller's to keep (pooled payloads are copied out and released).
func (c *Client) Read(name string) ([]byte, error) {
	data, err := c.c.Read(name)
	if err != nil {
		return nil, err
	}
	if data.Ref == nil {
		return data.Bytes, nil
	}
	out := make([]byte, len(data.Bytes))
	copy(out, data.Bytes)
	data.Release()
	return out, nil
}

// ReadSample requests one file and hands the pooled receive buffer to the
// caller, who must Release it — the zero-allocation read path for worker
// processes that enabled pooled reads.
func (c *Client) ReadSample(name string) (*Sample, error) {
	data, err := c.c.Read(name)
	if err != nil {
		return nil, err
	}
	return &Sample{Name: data.Name, Size: data.Size, data: data}, nil
}

// SubmitPlan forwards an epoch's shuffled filename list.
func (c *Client) SubmitPlan(names []string) error { return c.c.SubmitPlan(names) }

// SubmitEpoch forwards an epoch's plan and returns the server-issued epoch
// id plus how many entries were enqueued.
func (c *Client) SubmitEpoch(names []string) (EpochID, int, error) {
	res, err := c.c.SubmitEpoch(names)
	return EpochID(res.Epoch), res.Enqueued, err
}

// CancelEpoch cancels a plan epoch on the server, reporting how many plan
// entries were removed.
func (c *Client) CancelEpoch(id EpochID) (int, error) {
	return c.c.CancelEpoch(core.EpochID(id))
}

// get fetches the server's snapshot document, without spans. Stats,
// Epochs, Tenants and Decisions are its projections.
func (c *Client) get() (b httpadmin.Bundle, err error) {
	blob, err := c.c.Get(0)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("prisma: decode snapshot: %w", err)
	}
	return b, nil
}

// Epochs fetches the server's retained plan-epoch statuses.
func (c *Client) Epochs() ([]EpochStatus, error) {
	b, err := c.get()
	return epochsFrom(b.Epochs), err
}

// Stats fetches the remote stage's snapshot.
func (c *Client) Stats() (Stats, error) {
	b, err := c.get()
	return statsFrom(b.Stats), err
}

// Control hands key=value settings, unparsed, to the server's control
// table (see Prisma.Control), which applies all of them or none.
func (c *Client) Control(settings ...string) error { return c.c.Control(settings...) }

// SetProducers adjusts the remote stage's t.
func (c *Client) SetProducers(n int) error { return c.Control(control.Setting("producers", n)) }

// SetBufferCapacity adjusts the remote stage's N.
func (c *Client) SetBufferCapacity(n int) error { return c.Control(control.Setting("buffer", n)) }

// SetTraceSampling adjusts the remote stage's trace head-sampling
// probability.
func (c *Client) SetTraceSampling(p float64) error { return c.Control(control.Setting("sampling", p)) }

// Hello establishes this connection's tenant identity: every later read
// is attributed to (and admission-controlled for) the named tenant, and
// the identity is replayed transparently after a reconnect. Returns the
// resolved tenant name ("" maps to the default tenant).
func (c *Client) Hello(tenant, secret string) (string, error) { return c.c.Hello(tenant, secret) }

// Tenants fetches the server's per-tenant QoS snapshot.
func (c *Client) Tenants() (TenantsSnapshot, error) {
	b, err := c.get()
	if err != nil {
		return TenantsSnapshot{}, err
	}
	if b.Tenants == nil {
		return TenantsSnapshot{}, errTenancyDisabled
	}
	return tenantsFrom(*b.Tenants), nil
}

// SetTenant adjusts a tenant's arbitration weight and/or byte budget on
// the server (zero leaves the respective knob unchanged).
func (c *Client) SetTenant(name string, weight, bytesPerSecond float64) error {
	return c.Control(control.TenantSettings(name, weight, bytesPerSecond)...)
}

// Decisions fetches the remote autotuner's decision audit log as a raw
// JSON array, empty when the server runs no controller.
func (c *Client) Decisions() ([]byte, error) {
	b, err := c.get()
	if err != nil {
		return nil, err
	}
	return json.Marshal(append([]control.DecisionRecord{}, b.Decisions...))
}

// Bundle fetches the server's one-shot diagnostic bundle as raw JSON (the
// same document GET /debug/bundle serves).
func (c *Client) Bundle() ([]byte, error) { return c.c.Get(-1) }

// Ping probes server liveness.
func (c *Client) Ping() error { return c.c.Ping() }

// Close severs the connection.
func (c *Client) Close() error { return c.c.Close() }
