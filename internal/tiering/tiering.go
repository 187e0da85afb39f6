// Package tiering is the serving chain's memory hierarchy: one
// storage.Backend that keeps samples in process memory under one byte budget
// so a read it can serve never reaches the slow tier below. It covers two of
// the paper's §VII directions because they are one decision — which samples
// live in memory: storage tiering ("the impact of storage tiering policies
// under different datasets and models") and access coordination for jobs
// sharing a dataset ("multiple DL jobs (that are oblivious of each other)
// operating concurrently over the same dataset").
//
// A resident is raw (the slow tier's pooled buffer, retained) or, with
// Compress, a private LZ-encoded copy that stretches the budget; compressed
// hits decode in place into pooled buffers. Compress encodes only when it
// must: at each submission the plans still being read are sized against the
// budget (SizePlans), and while they fit raw every admission is raw, so a hit
// costs no decode. A
// file is a promotion candidate after a configurable number of accesses and
// enters free space unconditionally; once room has to be made it is admitted
// only over LRU-tail victims that are all strictly colder than it
// (roomLocked), decided before any compression work. DL training reads every
// file once per epoch (paper §IV), so over a working set larger than the
// budget every name is equally hot: ties decline, the resident set goes stable
// and the hit ratio is the budget's fraction of the set, where
// admit-every-miss LRU swapped one resident per read and hit almost never; a
// name that does become hotter than the residents still displaces them.
//
// Co-located jobs reading one dataset need the opposite rule: a sample one
// job has just read is about to be read by the other. Concurrent misses of
// one sample cost one slow read — the first reader fetches and the others
// join its flight and are handed its payload — and an optional recency
// window (Config.Window, the shared cache's budget) keeps, raw and LRU, every
// miss the rule above turns away, so a job trailing another by less than the
// window finds the sample resident. In sim mode an optional storage.Device
// models the fast tier's transfer costs. PrefetchPlan warms the next epoch's
// cold samples into free space while the current epoch trains.
package tiering

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/lz"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// DefaultMaxTracked bounds the non-residents' access-count map when Config
// leaves MaxTracked zero. Large enough that decay is rare on realistic
// datasets, small enough that never-promoted names cannot grow memory epoch
// over epoch.
const DefaultMaxTracked = 64 << 10

// DefaultCapacityBytes is the fast tier's byte budget when the serving
// layer's options name none.
const DefaultCapacityBytes = 256 << 20

// Config parameterizes the tiering policy.
type Config struct {
	// FastCapacity is the hierarchy's byte budget: what the residents pin (a
	// compressed resident charges its compressed size, a pooled raw one its
	// buffer's size class).
	FastCapacity int64
	// Window is the part of FastCapacity given to the recency window: a
	// slow read the rest of the budget does not admit (below PromoteAfter,
	// or no strictly colder victim) is kept there raw, evicting the
	// window's own least recently used residents. Zero means no window;
	// FastCapacity means the whole budget admits every miss, LRU. The warmer
	// fills only the rest.
	Window int64
	// PromoteAfter is the access count at which a file becomes a
	// candidate for the fast tier (1 = on first access). A candidate
	// always enters free space; a full tier admits it only over strictly
	// colder residents.
	PromoteAfter int
	// MaxTracked caps the map of non-residents' access counts. When the
	// map would exceed it, every count — residents' included — is halved
	// and zeroes dropped (cheap decay), so cold never-promoted names
	// cannot grow it without bound across epochs and a resident that
	// stops being read loses its standing. Zero selects DefaultMaxTracked.
	MaxTracked int
	// Compress stores main's admissions LZ-compressed (incompressible
	// samples stay verbatim), stretching FastCapacity, when the plans still
	// being read do not fit the budget raw — or before any plan is
	// submitted (SizePlans); hits decode in place into pooled buffers. Only effective
	// in live mode — modeled (payloadless) reads have nothing to compress.
	Compress bool
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.FastCapacity < 1 {
		return fmt.Errorf("tiering: fast capacity %d < 1", c.FastCapacity)
	}
	if c.PromoteAfter < 1 {
		return fmt.Errorf("tiering: promote-after %d < 1", c.PromoteAfter)
	}
	if c.MaxTracked < 0 {
		return fmt.Errorf("tiering: max tracked %d < 0", c.MaxTracked)
	}
	if c.Window < 0 || c.Window > c.FastCapacity {
		return fmt.Errorf("tiering: window %d outside [0, fast capacity %d]", c.Window, c.FastCapacity)
	}
	return nil
}

// Stats is a snapshot of the hierarchy's activity.
type Stats struct {
	FastHits  int64 // reads served from a resident
	SlowReads int64 // reads that went to the slow tier themselves
	// Waits counts whole-file reads that joined another reader's (or the
	// warmer's) in-flight slow read of the same name instead of issuing
	// their own, and WaitTime the time they spent blocked on it — the
	// hierarchy's share of the attribution split (always on, independent of
	// trace sampling).
	Waits      int64
	WaitTime   time.Duration
	Promotions int64
	Evictions  int64
	// Declined counts admissions refused because room had to be made and
	// some LRU-tail victim was not strictly colder than the candidate. A
	// full tier under a uniform scan shows Declined rising with Promotions
	// and Evictions flat: the resident set is stable, not broken.
	Declined int64
	// PrefetchPromotions counts next-epoch warming admissions;
	// PrefetchSkips counts plan entries the warmer declined (already
	// resident, no free space — warming never evicts — or slow-tier
	// error).
	PrefetchPromotions int64
	PrefetchSkips      int64
	// FastUsed is the physical byte occupancy; FastLogical the decoded
	// sample volume those bytes represent. Capacity is the whole budget and
	// Window the recency window's part of it.
	FastUsed    int64
	FastLogical int64
	Capacity    int64
	Window      int64
	Residents   int
	// Encoded counts the residents stored LZ-compressed; the rest are raw.
	Encoded int
	// TrackedNames is the size of the non-residents' access-count map;
	// AccessDecays counts the halving sweeps that bounded it.
	TrackedNames int
	AccessDecays int64
	// PromoteTime is cumulative read-path promotion work (compression +
	// admission) of admitted promotions and DecodeTime cumulative hit-path
	// decompression — the tier's CPU contribution to the attribution split.
	PromoteTime time.Duration
	DecodeTime  time.Duration
}

// Backend is the memory hierarchy over a slow backend. It is safe for
// concurrent use from threads of its environment.
type Backend struct {
	env  conc.Env
	cfg  Config
	slow storage.Backend
	// fastDevice models the fast tier's transfer costs when non-nil
	// (sim mode); residency is tracked here either way (the slow backend
	// remains the source of truth for content).
	fastDevice *storage.Device
	pool       *mempool.Pool
	// scratch recycles the encoder's output buffers (*[]byte) across
	// promotions; each settles at the largest sample it has compressed.
	scratch sync.Pool

	mu       conc.Mutex
	planCond conc.Cond
	// fetched is broadcast when a slow read that other readers joined ends.
	fetched  conc.Cond
	resident map[string]*list.Element // name -> element in its segment's LRU
	// main holds what the admission rule admitted and the warmer warmed;
	// window the misses main turned away (Config.Window).
	main, window segment
	// accesses counts the reads of every name that is not resident; a
	// resident's count lives in its entry (so a hit costs no map access),
	// moving there on admission and back here on eviction.
	accesses map[string]int
	decays   int64
	// minStored is the smallest non-empty resident the tier has ever
	// admitted: with less free space than that the warmer has nothing to
	// offer and stops walking its plan.
	minStored int64
	// inflight holds the names whose whole file is being read from the slow
	// tier, from the read's issue until the hierarchy has kept or dropped
	// its payload, so a name has at most one slow read and one admission at
	// a time. The slot stays nil until a second reader joins, so a miss
	// nobody joins allocates nothing.
	inflight map[string]*flight

	// encode is whether main's admissions are stored LZ-encoded: Compress,
	// unless the live set SizePlans last saw fits the budget raw. A read
	// takes it with its admission decision and carries it to prepareEntry.
	encode bool
	// encoded counts the residents stored LZ-encoded.
	encoded int

	// Next-epoch warming: the latest submitted plan and the lazily
	// started worker that drains it.
	plan          []dataset.Sample
	planGen       int
	workerRunning bool
	closed        bool

	fastHits     *metrics.Counter
	slowReads    *metrics.Counter
	waits        *metrics.Counter
	waitTime     *metrics.Counter // nanoseconds joined readers spent blocked
	promotions   *metrics.Counter
	evictions    *metrics.Counter
	declined     *metrics.Counter
	prefPromoted *metrics.Counter
	prefSkipped  *metrics.Counter
	promoteTime  *metrics.Counter // nanoseconds of read-path promote work
	decodeTime   *metrics.Counter // nanoseconds of hit-path decompression

	tracer *obs.Tracer // nil-safe: spans only for sampled reads
}

// segment is one part of the budget with its own LRU order.
type segment struct {
	order    *list.List // front = most recently used
	capacity int64
	used     int64 // physical bytes resident
	logical  int64 // decoded bytes resident
}

// flight is one slow read that other readers joined. When the read ends the
// reader that issued it publishes its payload here, retaining one pooled
// reference for each reader already waiting; while the payload is being
// kept the flight stays registered and done, and a reader arriving then
// retains its own reference (the issuer's is live until it returns).
type flight struct {
	waiters int
	done    bool
	ok      bool
	data    storage.Data
}

// entry is one resident. In live mode it owns the payload: a raw entry
// retains the slow tier's pooled reference (released on eviction); a
// compressed entry owns a private compressed copy. In sim mode bytes is nil
// and only the sizes matter.
type entry struct {
	name       string
	seg        *segment
	size       int64 // decoded sample size
	stored     int64 // physical bytes charged against FastCapacity
	bytes      []byte
	ref        *mempool.Ref
	compressed bool
	// count is the name's access count while resident: what it had when
	// admitted plus one per hit since, halved by every decay sweep.
	count int
}

// drop releases the entry's hold on its payload.
func (e *entry) drop() {
	if e.ref != nil {
		e.ref.Release()
		e.ref = nil
	}
	e.bytes = nil
}

// NewBackend builds a tiered backend: reads missing the fast tier go to
// slow; promoted copies pay fastDevice write costs; hits pay fastDevice
// read costs. fastDevice may be nil (live mode: the fast tier is process
// memory, and hits cost only the copy/decode).
func NewBackend(env conc.Env, cfg Config, slow storage.Backend, fastDevice *storage.Device) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxTracked == 0 {
		cfg.MaxTracked = DefaultMaxTracked
	}
	b := &Backend{
		env:          env,
		cfg:          cfg,
		slow:         slow,
		fastDevice:   fastDevice,
		mu:           env.NewMutex(),
		resident:     make(map[string]*list.Element),
		main:         segment{order: list.New(), capacity: cfg.FastCapacity - cfg.Window},
		window:       segment{order: list.New(), capacity: cfg.Window},
		accesses:     make(map[string]int),
		inflight:     make(map[string]*flight),
		encode:       cfg.Compress,
		fastHits:     metrics.NewCounter(env),
		slowReads:    metrics.NewCounter(env),
		waits:        metrics.NewCounter(env),
		waitTime:     metrics.NewCounter(env),
		promotions:   metrics.NewCounter(env),
		evictions:    metrics.NewCounter(env),
		declined:     metrics.NewCounter(env),
		prefPromoted: metrics.NewCounter(env),
		prefSkipped:  metrics.NewCounter(env),
		promoteTime:  metrics.NewCounter(env),
		decodeTime:   metrics.NewCounter(env),
	}
	b.planCond = env.NewCond(b.mu)
	b.fetched = env.NewCond(b.mu)
	b.scratch.New = func() any { return new([]byte) }
	return b, nil
}

// SetTracer attaches the lifecycle tracer: sampled reads then record hit,
// miss, coalesce, tier-promote and tier-decompress spans, and the warming
// worker records tier-warm spans on its own (head-sampled) traces. Nil
// disables spans; the wait, promote and decode time counters stay on either
// way.
func (b *Backend) SetTracer(t *obs.Tracer) { b.tracer = t }

// Read implements storage.Backend: it serves the file from a resident, from
// the payload of the name's slow read already in flight (a reader's or the
// warmer's), or from a slow read of its own, kept per the policy. Every
// read that is not a hit counts one access on the name — a joined read when
// it joins, so the issuing reader's admission decision sees it, as it would
// see the same read a moment earlier.
func (b *Backend) Read(req storage.Request) (storage.Response, error) {
	name := req.Name
	var waitStart, waited time.Duration
	counted := false
	b.mu.Lock()
	for {
		if el, hit := b.resident[name]; hit {
			resp, err := b.hitLocked(el, req) // unlocks b.mu
			b.noteWait(req, waitStart, waited)
			return resp, err
		}
		f, busy := b.inflight[name]
		if !busy {
			break
		}
		// Another read of this name is in flight: join it instead of
		// issuing a duplicate slow read.
		b.waits.Inc()
		if !counted {
			b.noteAccessLocked(name)
			counted = true
		}
		if f == nil {
			f = new(flight)
			b.inflight[name] = f
		}
		if f.done {
			// The payload is being kept: the issuer still holds its reference.
			if f.data.Ref != nil {
				f.data.Ref.Retain()
			}
		} else {
			f.waiters++
			begin := b.env.Now()
			if waited == 0 {
				waitStart = begin
			}
			for !f.done {
				b.fetched.Wait()
			}
			waited += b.env.Now() - begin
		}
		if f.ok {
			b.mu.Unlock()
			b.noteWait(req, waitStart, waited)
			if req.Ctx.Sampled {
				b.tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageCacheHit, Name: name, At: b.env.Now(), Size: f.data.Size})
			}
			return storage.Response{Data: f.data}, nil
		}
		// The read it joined failed: go round and read it itself.
	}
	b.inflight[name] = nil
	b.mu.Unlock()
	b.noteWait(req, waitStart, waited)

	var fetchStart time.Duration
	if req.Ctx.Sampled {
		fetchStart = b.env.Now()
	}
	resp, err := b.slow.Read(req)
	data := resp.Data
	if req.Ctx.Sampled {
		sp := obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageCacheMiss, Name: name, At: fetchStart, Latency: b.env.Now() - fetchStart, Size: data.Size}
		if err != nil {
			sp.Error = err.Error()
		}
		b.tracer.Record(sp)
	}

	b.mu.Lock()
	if err != nil {
		b.settleLocked(name, data, false, false)
		b.mu.Unlock()
		return resp, err
	}
	b.slowReads.Inc()
	if !counted {
		b.noteAccessLocked(name)
	}
	// Decide under the same lock hold, so a candidate main would refuse
	// anyway is refused here, on its estimated stored size — before the
	// compression, the copy and the second lock round — and goes to the
	// window instead, which takes it raw right here. Whether main's copy is
	// encoded is decided here too, so plans sized meanwhile cannot split
	// the decision.
	n, encode := b.accesses[name], b.encode
	promote := n >= b.cfg.PromoteAfter && data.Size <= b.main.capacity &&
		b.roomLocked(b.estimateStoredLocked(data, encode), n-1)
	if !promote && b.window.capacity > 0 {
		b.admitWindowLocked(name, data)
	}
	b.settleLocked(name, data, true, promote)
	b.mu.Unlock()
	if promote {
		promStart := b.env.Now()
		if stored, ok := b.promote(name, data, n-1, encode); ok {
			promDur := b.env.Now() - promStart
			b.promoteTime.Add(int64(promDur))
			b.promotions.Inc()
			if b.fastDevice != nil {
				b.fastDevice.Write(stored) // copy-in cost
			}
			if req.Ctx.Sampled {
				b.tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageTierPromote, Name: name, At: promStart, Latency: promDur, Size: stored})
			}
		}
	}
	return resp, nil
}

// settleLocked ends the slow read of name the caller issued: the readers
// already waiting on it are handed its payload, one pooled reference each,
// or told it failed. With keep the flight stays registered, done, while the
// caller prepares the resident copy outside the lock — promote retires it —
// so a reader arriving meanwhile is handed the payload too rather than
// issuing a second slow read and a second admission. Caller holds b.mu.
func (b *Backend) settleLocked(name string, data storage.Data, ok, keep bool) {
	f := b.inflight[name]
	if f == nil && keep {
		f = new(flight)
		b.inflight[name] = f
	}
	if f != nil {
		f.done, f.ok, f.data = true, ok, data
		if ok && data.Ref != nil {
			for i := 0; i < f.waiters; i++ {
				data.Ref.Retain()
			}
		}
		b.fetched.Broadcast()
	}
	if !keep {
		delete(b.inflight, name)
	}
}

// hitLocked serves a whole-file read from the resident el and unlocks b.mu.
func (b *Backend) hitLocked(el *list.Element, req storage.Request) (storage.Response, error) {
	// Snapshot the entry under the lock: a concurrent admit may evict this
	// element the moment we release it. The retained reference keeps the
	// payload alive past the unlock even if it does.
	e := el.Value.(*entry)
	e.seg.order.MoveToFront(el)
	e.count++
	size, stored, compressed := e.size, e.stored, e.compressed
	bytes, ref := e.bytes, e.ref
	if ref != nil {
		ref.Retain()
	}
	b.mu.Unlock()

	name, ctx := req.Name, req.Ctx
	b.fastHits.Inc()
	if b.fastDevice != nil {
		b.fastDevice.Read(stored)
	}
	if ctx.Sampled {
		b.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageCacheHit, Name: name, At: b.env.Now(), Size: size})
	}
	if bytes == nil || !compressed {
		// Modeled fast tier: sizes only. Otherwise the retained reference
		// transfers to the caller (§11 single-ownership: the caller
		// releases as usual).
		return storage.Response{Data: storage.Data{Name: name, Size: size, Bytes: bytes, Ref: ref}}, nil
	}
	dst, dstRef := b.sampleBuf(int(size))
	decStart := b.env.Now()
	err := lz.DecompressInto(dst, bytes)
	decDur := b.env.Now() - decStart
	b.decodeTime.Add(int64(decDur))
	if ctx.Sampled {
		sp := obs.Span{Trace: ctx.Trace, Stage: obs.StageDecompress, Name: name, At: decStart, Latency: decDur, Size: size}
		if err != nil {
			sp.Error = err.Error()
		}
		b.tracer.Record(sp)
	}
	if err != nil {
		if dstRef != nil {
			dstRef.Release()
		}
		return storage.Response{}, fmt.Errorf("tiering: fast-tier decode of %s: %w", name, err)
	}
	return storage.Response{Data: storage.Data{Name: name, Size: size, Bytes: dst, Ref: dstRef}}, nil
}

// promote prepares main's copy of a slow read the caller issued and kept its
// flight for (settleLocked), outside the lock (compression is CPU work), then
// admits it and retires the flight in one critical section, so no reader of
// the name is ever between the two. It reports the stored size and whether
// the copy entered main.
func (b *Backend) promote(name string, data storage.Data, earlier int, encode bool) (int64, bool) {
	e := b.prepareEntry(name, data, encode)
	b.mu.Lock()
	admitted := b.admitLocked(e, earlier)
	delete(b.inflight, name)
	b.mu.Unlock()
	if !admitted {
		e.drop()
	}
	return e.stored, admitted
}

// noteWait folds one completed wait on another reader's slow read into the
// always-on wait-time counter and, for sampled reads, records the joined
// reader's coalesce span.
func (b *Backend) noteWait(req storage.Request, start, waited time.Duration) {
	if waited <= 0 {
		return
	}
	b.waitTime.Add(int64(waited))
	if req.Ctx.Sampled {
		b.tracer.Record(obs.Span{Trace: req.Ctx.Trace, Stage: obs.StageCacheCoalesce, Name: req.Name, At: start, Latency: waited})
	}
}

// sampleBuf returns a decode destination of n bytes, pooled when a pool
// is attached.
func (b *Backend) sampleBuf(n int) ([]byte, *mempool.Ref) {
	if b.pool != nil {
		ref := b.pool.Get(n)
		return ref.Bytes(), ref
	}
	return make([]byte, n), nil
}

// prepareEntry builds the resident for a slow-tier read, encoded when encode
// is set. Compressed entries own a private compressed copy (pool buffers are
// not held hostage at compressed lifetimes) of exactly the stored size; raw
// entries alias the payload and retain its pooled reference, and are charged
// the whole buffer they pin, not just the payload's length — so the bytes the
// tier pins are the bytes FastCapacity is charged. Modeled reads carry sizes
// only.
func (b *Backend) prepareEntry(name string, data storage.Data, encode bool) *entry {
	if encode && data.Bytes != nil {
		if comp, ok := b.compress(data.Bytes); ok {
			return &entry{name: name, seg: &b.main, size: data.Size, stored: int64(len(comp)), bytes: comp, compressed: true}
		}
	}
	e := rawEntry(name, data)
	e.seg = &b.main
	if e.ref != nil {
		e.ref.Retain()
	}
	return e
}

// rawEntry describes a resident that aliases data's payload, charged the
// buffer it would pin; the caller retains e.ref when it keeps the entry.
func rawEntry(name string, data storage.Data) *entry {
	return &entry{name: name, size: data.Size, stored: rawStored(data), bytes: data.Bytes, ref: data.Ref}
}

// rawStored is what a raw resident aliasing data's payload is charged: the
// pooled buffer it pins, or the payload's length when it is not pooled.
func rawStored(data storage.Data) int64 {
	if data.Ref != nil {
		return int64(data.Ref.Cap())
	}
	return data.Size
}

// compress LZ-encodes src into recycled scratch and returns an exact-size
// copy (cap == len), or false when src does not compress.
func (b *Backend) compress(src []byte) ([]byte, bool) {
	scratch := b.scratch.Get().(*[]byte)
	defer b.scratch.Put(scratch)
	comp, ok := lz.AppendCompress((*scratch)[:0], src)
	*scratch = comp
	if !ok {
		return nil, false
	}
	exact := make([]byte, len(comp))
	copy(exact, comp)
	return exact, true
}

// roomLocked applies the admission rule (fitsLocked) to a candidate the
// tier has been offered and counts a refusal in Stats.Declined. Caller
// holds b.mu.
func (b *Backend) roomLocked(stored int64, earlier int) bool {
	if b.fitsLocked(stored, earlier) {
		return true
	}
	b.declined.Inc()
	return false
}

// fitsLocked is the admission rule: it reports whether a candidate of the
// given stored size, read earlier times before the read that offers it,
// may enter the tier. Free space admits anything. When room has to be made
// the candidate must be strictly hotter than every LRU-tail resident it
// would displace; a tie declines, because swapping one equally hot sample
// for another buys no hit and costs a compression, a copy and an eviction.
// The read in flight is not counted on the candidate's side: the LRU tail
// is by construction the residents this epoch's scan has not reached yet,
// and a one-read head start over exactly those would evict each of them
// just before its next use. Nothing is evicted and nothing counted here.
// Caller holds b.mu.
func (b *Backend) fitsLocked(stored int64, earlier int) bool {
	need := b.main.used + stored - b.main.capacity
	for el := b.main.order.Back(); need > 0; el = el.Prev() {
		if el == nil || el.Value.(*entry).count >= earlier {
			return false
		}
		need -= el.Value.(*entry).stored
	}
	return true
}

// estimateStoredLocked predicts what a slow-tier read would charge against
// main once prepared, so the admission rule can run before the compression
// does: a raw copy's exact charge, an encoded one's size scaled by the
// running stored/logical ratio of main's residents. admitLocked re-checks
// with the exact size. Caller holds b.mu.
func (b *Backend) estimateStoredLocked(data storage.Data, encode bool) int64 {
	if !encode || data.Bytes == nil {
		return rawStored(data)
	}
	if b.main.logical == 0 {
		return data.Size
	}
	return int64(float64(data.Size) * float64(b.main.used) / float64(b.main.logical))
}

// admitLocked inserts the prepared entry into main, evicting the LRU
// residents roomLocked allows it to displace (none when earlier is 0, which
// is how the warmer never evicts). It reports whether the entry actually
// entered — one larger than main, or one with no strictly colder victims to
// make its exact stored size fit, declines, so an under-estimate at decision
// time cannot over-commit the budget. The name's flight guarantees nobody
// else is admitting it. Caller holds b.mu.
func (b *Backend) admitLocked(e *entry, earlier int) bool {
	if b.closed || e.stored > b.main.capacity || !b.roomLocked(e.stored, earlier) {
		return false
	}
	b.insertLocked(e)
	if e.stored > 0 && (b.minStored == 0 || e.stored < b.minStored) {
		b.minStored = e.stored
	}
	return true
}

// admitWindowLocked keeps a slow read main turned away in the recency
// window, raw, evicting the window's least recently used residents to make
// room: the shared cache's rule, for the job about to read the same sample.
// Caller holds b.mu.
func (b *Backend) admitWindowLocked(name string, data storage.Data) {
	e := rawEntry(name, data)
	if b.closed || e.stored > b.window.capacity {
		return
	}
	if e.ref != nil {
		e.ref.Retain()
	}
	e.seg = &b.window
	b.insertLocked(e)
}

// insertLocked makes e resident at the front of its segment, first evicting
// the segment's least recently used residents until it fits (the caller has
// checked that it may), and moves the name's access count onto it. Caller
// holds b.mu.
func (b *Backend) insertLocked(e *entry) {
	for e.seg.used+e.stored > e.seg.capacity {
		b.evictLocked(e.seg.order.Back())
		b.evictions.Inc()
	}
	e.count = b.accesses[e.name]
	delete(b.accesses, e.name)
	b.resident[e.name] = e.seg.order.PushFront(e)
	e.seg.used += e.stored
	e.seg.logical += e.size
	if e.compressed {
		b.encoded++
	}
}

// evictLocked removes one resident, releases its payload hold and hands its
// access count back to the non-residents' map, so a sample keeps its
// standing across eviction. Caller holds b.mu.
func (b *Backend) evictLocked(el *list.Element) {
	victim := el.Value.(*entry)
	victim.seg.order.Remove(el)
	delete(b.resident, victim.name)
	victim.seg.used -= victim.stored
	victim.seg.logical -= victim.size
	if victim.compressed {
		b.encoded--
	}
	victim.drop()
	if victim.count > 0 {
		b.trackLocked(victim.name, victim.count)
	}
}

// trackLocked sets a non-resident's access count and keeps the map within
// MaxTracked. Caller holds b.mu.
func (b *Backend) trackLocked(name string, n int) {
	b.accesses[name] = n
	if len(b.accesses) > b.cfg.MaxTracked {
		b.decayAccessesLocked()
	}
}

// decayAccessesLocked halves every access count, residents' and
// non-residents' alike, and drops the non-residents that reach zero — a
// TinyLFU-style aging sweep that bounds the map while keeping relative
// popularity, and lets a resident that is no longer read lose to a name
// that is. All count-1 names (the unbounded-growth population) vanish in
// one sweep. Caller holds b.mu.
func (b *Backend) decayAccessesLocked() {
	for name, n := range b.accesses {
		n /= 2
		if n == 0 {
			delete(b.accesses, name)
		} else {
			b.accesses[name] = n
		}
	}
	for _, seg := range []*segment{&b.main, &b.window} {
		for el := seg.order.Front(); el != nil; el = el.Next() {
			el.Value.(*entry).count /= 2
		}
	}
	b.decays++
}

// SizePlans sizes the live set — each sample the plans still being read
// name, once (core.StageConfig.EpochPlanHook) — against the whole budget, main
// and window together: it adds up what the samples would charge as raw
// residents, the pooled buffer each would pin, and from then on admissions
// are raw while that sum fits FastCapacity and LZ-encoded while it does not.
// A small plan submitted while an epoch over the budget is still being read
// therefore keeps admissions encoded. Residents keep the form they were
// admitted in, and a live set that fits only encoded, not raw, stays wholly
// encoded. Only a compressing hierarchy (Config.Compress) is sized: the
// chain registers SizePlans only then.
func (b *Backend) SizePlans(live []dataset.Sample) {
	var charge int64
	for _, s := range live {
		if charge += b.rawCharge(s.Size); charge > b.cfg.FastCapacity {
			break
		}
	}
	b.mu.Lock()
	b.encode = charge > b.cfg.FastCapacity
	b.mu.Unlock()
}

// rawCharge is what a raw resident of size bytes is charged (rawStored): the
// pooled buffer a read of it leases, or its own size without a pool or
// above the pool's largest class.
func (b *Backend) rawCharge(size int64) int64 {
	if b.pool == nil {
		return size
	}
	return max(int64(b.pool.ClassSize(int(size))), size)
}

// PrefetchPlan hands the warmer the next epoch's access order, as the
// manifest entries the plan was checked against (the stage knows it at
// SubmitEpoch time). A lazily started background worker promotes the plan's
// cold samples into *free* fast-tier space — warming never evicts the
// current epoch's working set — so when the next epoch starts, its head of
// the order is already fast. A sample larger than the free space is skipped
// on its manifest size, before any slow-tier call. A newer plan supersedes
// an undrained older one.
func (b *Backend) PrefetchPlan(plan []dataset.Sample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.plan = append([]dataset.Sample(nil), plan...)
	b.planGen++
	if !b.workerRunning {
		b.workerRunning = true
		b.env.Go("tiering-prefetch", b.prefetchLoop)
	}
	b.planCond.Broadcast()
}

func (b *Backend) prefetchLoop() {
	b.mu.Lock()
	for {
		for !b.closed && len(b.plan) == 0 {
			b.planCond.Wait()
		}
		if b.closed {
			b.mu.Unlock()
			return
		}
		plan := b.plan
		b.plan = nil
		gen := b.planGen
		b.mu.Unlock()

		for i, s := range plan {
			b.mu.Lock()
			stale := b.closed || b.planGen != gen
			_, res := b.resident[s.Name]
			free := b.main.capacity - b.main.used
			full := free < b.minStored
			b.mu.Unlock()
			if stale {
				break
			}
			if full {
				// Warming never evicts, so with less free space than the
				// smallest sample ever admitted the rest of the plan has
				// nothing to warm.
				b.prefSkipped.Add(int64(len(plan) - i))
				break
			}
			if res || s.Size > free || !b.warm(s.Name) {
				b.prefSkipped.Inc()
			}
		}
		b.mu.Lock()
	}
}

// warm reads one non-resident plan entry from the slow tier into free space
// in main and reports whether it was admitted. The read is the name's flight
// like a demand miss's, so a demand read of the same name joins it instead
// of issuing a second slow read, and is skipped when a demand read is
// already fetching the name.
func (b *Backend) warm(name string) bool {
	b.mu.Lock()
	_, res := b.resident[name]
	_, busy := b.inflight[name]
	if res || busy || b.closed {
		b.mu.Unlock()
		return false
	}
	b.inflight[name] = nil
	b.mu.Unlock()
	// Warming runs off the consumer read path, so each warmed file gets
	// its own head-sampled trace instead of riding a read's.
	ctx := b.tracer.StartTrace()
	warmStart := b.env.Now()
	resp, err := b.slow.Read(storage.Request{Name: name, Ctx: ctx})
	b.mu.Lock()
	b.settleLocked(name, resp.Data, err == nil, err == nil)
	encode := b.encode
	b.mu.Unlock()
	if err != nil {
		return false
	}
	defer resp.Data.Release()
	stored, admitted := b.promote(name, resp.Data, 0, encode)
	if !admitted {
		return false
	}
	b.prefPromoted.Inc()
	if b.fastDevice != nil {
		b.fastDevice.Write(stored)
	}
	if ctx.Sampled {
		b.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageTierWarm, Name: name, At: warmStart, Latency: b.env.Now() - warmStart, Size: stored})
	}
	return true
}

// noteAccessLocked records a slow-tier access of a non-resident in the
// bounded access counts. Caller holds b.mu.
func (b *Backend) noteAccessLocked(name string) {
	b.trackLocked(name, b.accesses[name]+1)
}

// SetBufferPool attaches the pool that serves hit-path decode buffers.
// (The slow tier's payloads arrive pooled when the chain builder attaches
// the same pool to the leaf.)
func (b *Backend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// Resident reports whether name currently lives on the fast tier.
func (b *Backend) Resident(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.resident[name]
	return ok
}

// Close stops the warming worker and releases every resident payload so
// end-of-run leak audits see a clean pool. Reads still pass through
// afterwards; nothing is admitted.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.plan = nil
	b.planCond.Broadcast()
	for _, seg := range []*segment{&b.main, &b.window} {
		for el := seg.order.Back(); el != nil; el = seg.order.Back() {
			b.evictLocked(el)
		}
	}
}

// Stats snapshots the hierarchy's counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	used, logical, residents := b.main.used+b.window.used, b.main.logical+b.window.logical, len(b.resident)
	tracked, decays, encoded := len(b.accesses), b.decays, b.encoded
	b.mu.Unlock()
	return Stats{
		FastHits:           b.fastHits.Value(),
		SlowReads:          b.slowReads.Value(),
		Waits:              b.waits.Value(),
		WaitTime:           time.Duration(b.waitTime.Value()),
		Promotions:         b.promotions.Value(),
		Evictions:          b.evictions.Value(),
		Declined:           b.declined.Value(),
		PrefetchPromotions: b.prefPromoted.Value(),
		PrefetchSkips:      b.prefSkipped.Value(),
		FastUsed:           used,
		FastLogical:        logical,
		Capacity:           b.cfg.FastCapacity,
		Window:             b.cfg.Window,
		Residents:          residents,
		Encoded:            encoded,
		TrackedNames:       tracked,
		AccessDecays:       decays,
		PromoteTime:        time.Duration(b.promoteTime.Value()),
		DecodeTime:         time.Duration(b.decodeTime.Value()),
	}
}
