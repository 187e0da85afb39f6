// Package tiering implements the storage-tiering optimization the paper
// lists as future work (§VII: "it would be interesting to explore the
// impact of storage tiering policies under different datasets and
// models"). It is a self-contained data-plane building block in the
// paper's sense: a Backend that fronts a slow tier (parallel file system,
// NFS share) with a capacity-bounded fast tier (local NVMe), promoting
// files after a configurable number of accesses and evicting LRU files
// when the fast tier fills. In live mode the fast tier retains real
// payload bytes (pool-reference-retained, optionally LZ-compressed so the
// same byte budget holds more samples); in sim mode an optional
// storage.Device models the fast tier's transfer costs. PrefetchPlan warms
// the next epoch's cold samples into free fast-tier space while the
// current epoch trains.
package tiering

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// DefaultMaxTracked bounds the promotion-counter map when Config leaves
// MaxTracked zero. Large enough that decay is rare on realistic datasets,
// small enough that never-promoted names cannot grow memory epoch over
// epoch.
const DefaultMaxTracked = 64 << 10

// Config parameterizes the tiering policy.
type Config struct {
	// FastCapacity is the fast tier's byte budget (physical bytes: a
	// compressed resident charges its compressed size).
	FastCapacity int64
	// PromoteAfter is the access count at which a file is copied to the
	// fast tier (1 = promote on first access).
	PromoteAfter int
	// MaxTracked caps the promotion-counter map. When the map would
	// exceed it, every count is halved and zeroes dropped (cheap decay),
	// so cold never-promoted names cannot grow it without bound across
	// epochs. Zero selects DefaultMaxTracked.
	MaxTracked int
	// Compress stores promoted payloads LZ-compressed (incompressible
	// samples stay verbatim), stretching FastCapacity; hits decode in
	// place into pooled buffers. Only effective in live mode — modeled
	// (payloadless) reads have nothing to compress.
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
	return nil
}

// Stats is a snapshot of tiering activity.
type Stats struct {
	FastHits   int64
	SlowReads  int64 // demand misses served by the slow tier
	Promotions int64
	Evictions  int64
	// PrefetchPromotions counts next-epoch warming admissions;
	// PrefetchSkips counts plan entries the warmer declined (already
	// resident, no free space — warming never evicts — or slow-tier
	// error).
	PrefetchPromotions int64
	PrefetchSkips      int64
	// FastUsed is the physical byte occupancy; FastLogical the decoded
	// sample volume those bytes represent (equal unless Compress).
	FastUsed    int64
	FastLogical int64
	Capacity    int64
	Residents   int
	// TrackedNames is the promotion-counter map size; AccessDecays counts
	// the halving sweeps that bounded it.
	TrackedNames int
	AccessDecays int64
	// PromoteTime is cumulative read-path promotion work (compression +
	// admission) of admitted promotions and DecodeTime cumulative hit-path decompression — the
	// tier's CPU contribution to the attribution split (always on,
	// independent of trace sampling).
	PromoteTime time.Duration
	DecodeTime  time.Duration
}

// Backend is the tiered storage backend. It is safe for concurrent use
// from threads of its environment.
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
	resident map[string]*list.Element // name -> LRU element
	order    *list.List               // front = most recently used
	used     int64                    // physical bytes resident
	logical  int64                    // decoded bytes resident
	accesses map[string]int
	decays   int64

	// Next-epoch warming: the latest submitted plan and the lazily
	// started worker that drains it.
	plan          []string
	planGen       int
	workerRunning bool
	closed        bool

	fastHits     *metrics.Counter
	slowReads    *metrics.Counter
	promotions   *metrics.Counter
	evictions    *metrics.Counter
	prefPromoted *metrics.Counter
	prefSkipped  *metrics.Counter
	promoteTime  *metrics.Counter // nanoseconds of read-path promote work
	decodeTime   *metrics.Counter // nanoseconds of hit-path decompression

	tracer *obs.Tracer // nil-safe: spans only for sampled reads
}

// entry is one fast-tier resident. In live mode it owns the payload: an
// uncompressed entry retains the backend's pooled reference (released on
// eviction); a compressed entry owns a private compressed copy. In sim
// mode bytes is nil and only the sizes matter.
type entry struct {
	name       string
	size       int64 // decoded sample size
	stored     int64 // physical bytes charged against FastCapacity
	bytes      []byte
	ref        *mempool.Ref
	compressed bool
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
// memory standing in for local NVMe, and hits cost only the copy/decode).
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
		order:        list.New(),
		accesses:     make(map[string]int),
		fastHits:     metrics.NewCounter(env),
		slowReads:    metrics.NewCounter(env),
		promotions:   metrics.NewCounter(env),
		evictions:    metrics.NewCounter(env),
		prefPromoted: metrics.NewCounter(env),
		prefSkipped:  metrics.NewCounter(env),
		promoteTime:  metrics.NewCounter(env),
		decodeTime:   metrics.NewCounter(env),
	}
	b.planCond = env.NewCond(b.mu)
	b.scratch.New = func() any { return new([]byte) }
	return b, nil
}

// SetTracer attaches the lifecycle tracer: sampled reads then record
// tier-promote and recordio-decompress spans, and the warming worker
// records tier-warm spans on its own (head-sampled) traces. Nil disables
// spans; the promote/decode time counters stay on either way.
func (b *Backend) SetTracer(t *obs.Tracer) { b.tracer = t }

// Read implements storage.Backend, dispatching on the request class.
//
// A whole-file read is served from the fast tier when resident and
// otherwise from the slow tier, promoting per the policy; the tier's
// attributable work — hit-path decompression and read-path promotion — is
// recorded as spans on the read's trace when it is sampled.
//
// A ranged read of an uncompressed fast-tier resident is served as
// zero-copy slices of the resident payload (each view retaining its pool
// reference), charged to the fast device as one request for the total
// bytes and counted as hits; anything else — miss, compressed resident
// (slicing it would need a decode of the whole record, which the
// whole-file hit path already covers), negative range left for the slow
// tier to reject — goes to the slow tier as one request, with the access
// recorded in the promotion counters so range-heavy workloads show up in
// tier accounting instead of silently bypassing it. No promotion is
// attempted: a range carries only part of the payload, so there is
// nothing complete to admit.
func (b *Backend) Read(req storage.Request) (storage.Response, error) {
	if len(req.Ranges) > 0 {
		if req.Validate() == nil {
			if views, ok := b.rangesFromResident(req); ok {
				return storage.Response{Views: views}, nil
			}
		}
		resp, err := b.slow.Read(req)
		if err != nil {
			return resp, err
		}
		b.slowReads.Inc()
		b.mu.Lock()
		b.noteAccessLocked(req.Name)
		b.mu.Unlock()
		return resp, nil
	}
	name, ctx := req.Name, req.Ctx
	b.mu.Lock()
	if el, hit := b.resident[name]; hit {
		b.order.MoveToFront(el)
		// Snapshot the entry under the lock: a concurrent admit may evict
		// this element the moment we release it. The retained reference
		// keeps the payload alive past the unlock even if it does.
		e := el.Value.(*entry)
		size, stored, compressed := e.size, e.stored, e.compressed
		bytes, ref := e.bytes, e.ref
		if ref != nil {
			ref.Retain()
		}
		b.mu.Unlock()

		b.fastHits.Inc()
		if b.fastDevice != nil {
			b.fastDevice.Read(stored)
		}
		if bytes == nil || !compressed {
			// Modeled fast tier: sizes only. Otherwise the retained
			// reference transfers to the caller (§11 single-ownership: the
			// caller releases as usual).
			return storage.Response{Data: storage.Data{Name: name, Size: size, Bytes: bytes, Ref: ref}}, nil
		}
		dst, dstRef := b.sampleBuf(int(size))
		decStart := b.env.Now()
		err := recordio.DecompressInto(dst, bytes)
		decDur := b.env.Now() - decStart
		b.decodeTime.Add(int64(decDur))
		if ctx.Sampled {
			sp := obs.Span{Trace: ctx.Trace, Stage: obs.StageDecompress, Name: name, At: decStart, Latency: decDur, Size: size}
			if err != nil {
				sp.Error = err.Error()
			}
			b.tracer.Record(sp)
		}
		if ref != nil {
			ref.Release()
		}
		if err != nil {
			if dstRef != nil {
				dstRef.Release()
			}
			return storage.Response{}, fmt.Errorf("tiering: fast-tier decode of %s: %w", name, err)
		}
		return storage.Response{Data: storage.Data{Name: name, Size: size, Bytes: dst, Ref: dstRef}}, nil
	}
	b.mu.Unlock()

	resp, err := b.slow.Read(req)
	if err != nil {
		return resp, err
	}
	data := resp.Data
	b.slowReads.Inc()

	// Decide under one lock hold: a name that became resident while this
	// read was in flight (a racing misser or the warmer won) needs neither
	// an access count nor a second resident copy prepared.
	b.mu.Lock()
	promote := false
	if _, res := b.resident[name]; !res {
		b.noteAccessLocked(name)
		promote = b.accesses[name] >= b.cfg.PromoteAfter &&
			data.Size <= b.cfg.FastCapacity
	}
	b.mu.Unlock()
	if !promote {
		return resp, nil
	}

	// Prepare the resident copy outside the lock (compression is CPU
	// work), then race to admit: misses on the same name that all passed
	// the check above reach here together, but only the winner charges
	// the fast device, the promotion counter and the promote time.
	promStart := b.env.Now()
	e := b.prepareEntry(name, data)
	b.mu.Lock()
	admitted := b.admitLocked(e, true)
	b.mu.Unlock()
	if admitted {
		promDur := b.env.Now() - promStart
		b.promoteTime.Add(int64(promDur))
		b.promotions.Inc()
		if b.fastDevice != nil {
			b.fastDevice.Write(e.stored) // copy-in cost
		}
		if ctx.Sampled {
			b.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageTierPromote, Name: name, At: promStart, Latency: promDur, Size: e.stored})
		}
	} else {
		e.drop()
	}
	return resp, nil
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

// prepareEntry builds the fast-tier resident for a slow-tier read. Live
// uncompressed entries alias the payload and retain its pooled reference;
// compressed entries own a private compressed copy (pool buffers are not
// held hostage at compressed lifetimes) of exactly the stored size, so
// the bytes the tier pins are the bytes FastCapacity is charged; modeled
// reads carry sizes only.
func (b *Backend) prepareEntry(name string, data storage.Data) *entry {
	e := &entry{name: name, size: data.Size, stored: data.Size}
	if data.Bytes == nil {
		return e
	}
	if b.cfg.Compress {
		if comp, ok := b.compress(data.Bytes); ok {
			e.bytes = comp
			e.stored = int64(len(comp))
			e.compressed = true
			return e
		}
	}
	if data.Ref != nil {
		data.Ref.Retain()
		e.ref = data.Ref
	}
	e.bytes = data.Bytes
	return e
}

// compress LZ-encodes src into recycled scratch and returns an exact-size
// copy (cap == len), or false when src does not compress.
func (b *Backend) compress(src []byte) ([]byte, bool) {
	scratch := b.scratch.Get().(*[]byte)
	defer b.scratch.Put(scratch)
	comp, ok := recordio.AppendCompress((*scratch)[:0], src)
	*scratch = comp
	if !ok {
		return nil, false
	}
	exact := make([]byte, len(comp))
	copy(exact, comp)
	return exact, true
}

// admitLocked inserts the prepared entry, evicting LRU residents when
// allowed. It reports whether the entry actually entered the tier — a
// duplicate (another reader won the race), an entry larger than the whole
// tier, or a full tier under evict=false all decline. Caller holds b.mu.
func (b *Backend) admitLocked(e *entry, evict bool) bool {
	if b.closed {
		return false
	}
	if _, dup := b.resident[e.name]; dup {
		return false
	}
	if e.stored > b.cfg.FastCapacity {
		return false
	}
	for b.used+e.stored > b.cfg.FastCapacity {
		if !evict {
			return false
		}
		back := b.order.Back()
		if back == nil {
			return false
		}
		b.evictLocked(back)
		b.evictions.Inc()
	}
	b.resident[e.name] = b.order.PushFront(e)
	b.used += e.stored
	b.logical += e.size
	delete(b.accesses, e.name) // reset the promotion counter
	return true
}

// evictLocked removes one resident and releases its payload hold. Caller
// holds b.mu.
func (b *Backend) evictLocked(el *list.Element) {
	victim := el.Value.(*entry)
	b.order.Remove(el)
	delete(b.resident, victim.name)
	b.used -= victim.stored
	b.logical -= victim.size
	victim.drop()
}

// decayAccessesLocked halves every promotion counter and drops zeroes —
// a TinyLFU-style aging sweep that bounds the map while keeping relative
// popularity. All count-1 names (the unbounded-growth population) vanish
// in one sweep. Caller holds b.mu.
func (b *Backend) decayAccessesLocked() {
	for name, n := range b.accesses {
		n /= 2
		if n == 0 {
			delete(b.accesses, name)
		} else {
			b.accesses[name] = n
		}
	}
	b.decays++
}

// PrefetchPlan hands the warmer the next epoch's access order (PR 5's
// plan manager knows it at SubmitEpoch time). A lazily started background
// worker promotes the plan's cold samples into *free* fast-tier space —
// warming never evicts the current epoch's working set — so when the next
// epoch starts, its head of the order is already fast. A newer plan
// supersedes an undrained older one.
func (b *Backend) PrefetchPlan(names []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.plan = append([]string(nil), names...)
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

		for _, name := range plan {
			b.mu.Lock()
			stale := b.closed || b.planGen != gen
			_, res := b.resident[name]
			free := b.cfg.FastCapacity - b.used
			b.mu.Unlock()
			if stale {
				break
			}
			if res {
				b.prefSkipped.Inc()
				continue
			}
			size, err := b.slow.Size(name)
			if err != nil || size > free {
				b.prefSkipped.Inc()
				continue
			}
			// Warming runs off the consumer read path, so each warmed file
			// gets its own head-sampled trace instead of riding a read's.
			ctx := b.tracer.StartTrace()
			warmStart := b.env.Now()
			resp, err := b.slow.Read(storage.Request{Name: name, Ctx: ctx})
			if err != nil {
				b.prefSkipped.Inc()
				continue
			}
			data := resp.Data
			e := b.prepareEntry(name, data)
			b.mu.Lock()
			admitted := b.admitLocked(e, false)
			b.mu.Unlock()
			if admitted {
				b.prefPromoted.Inc()
				if b.fastDevice != nil {
					b.fastDevice.Write(e.stored)
				}
				if ctx.Sampled {
					b.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageTierWarm, Name: name, At: warmStart, Latency: b.env.Now() - warmStart, Size: e.stored})
				}
			} else {
				e.drop()
				b.prefSkipped.Inc()
			}
			data.Release()
		}
		b.mu.Lock()
	}
}

// Size implements storage.Backend (metadata comes from the slow tier).
func (b *Backend) Size(name string) (int64, error) { return b.slow.Size(name) }

// rangesFromResident slices every range of req from one uncompressed (or
// modeled) resident, each view clamped per the read contract and retaining
// the resident's pool reference; !ok when the name is not resident or is
// stored compressed.
func (b *Backend) rangesFromResident(req storage.Request) ([]storage.Data, bool) {
	b.mu.Lock()
	el, hit := b.resident[req.Name]
	if !hit || el.Value.(*entry).compressed {
		b.mu.Unlock()
		return nil, false
	}
	b.order.MoveToFront(el)
	e := el.Value.(*entry)
	whole := storage.Data{Name: req.Name, Size: e.size, Bytes: e.bytes, Ref: e.ref}
	views := req.Out
	var total int64
	for _, r := range req.Ranges {
		if e.ref != nil {
			e.ref.Retain()
		}
		v := whole.Slice(r)
		total += v.Size
		views = append(views, v)
	}
	b.mu.Unlock()

	b.fastHits.Add(int64(len(req.Ranges)))
	if b.fastDevice != nil {
		b.fastDevice.Read(total)
	}
	return views, true
}

// noteAccessLocked records a slow-tier access in the bounded promotion
// counters. Caller holds b.mu.
func (b *Backend) noteAccessLocked(name string) {
	b.accesses[name]++
	if len(b.accesses) > b.cfg.MaxTracked {
		b.decayAccessesLocked()
	}
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
// end-of-run leak audits see a clean pool.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.plan = nil
	b.planCond.Broadcast()
	for el := b.order.Back(); el != nil; el = b.order.Back() {
		b.evictLocked(el)
	}
}

// Stats snapshots tiering counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	used, logical, residents := b.used, b.logical, len(b.resident)
	tracked, decays := len(b.accesses), b.decays
	b.mu.Unlock()
	return Stats{
		FastHits:           b.fastHits.Value(),
		SlowReads:          b.slowReads.Value(),
		Promotions:         b.promotions.Value(),
		Evictions:          b.evictions.Value(),
		PrefetchPromotions: b.prefPromoted.Value(),
		PrefetchSkips:      b.prefSkipped.Value(),
		FastUsed:           used,
		FastLogical:        logical,
		Capacity:           b.cfg.FastCapacity,
		Residents:          residents,
		TrackedNames:       tracked,
		AccessDecays:       decays,
		PromoteTime:        time.Duration(b.promoteTime.Value()),
		DecodeTime:         time.Duration(b.decodeTime.Value()),
	}
}
