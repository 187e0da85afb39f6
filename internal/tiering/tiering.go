// Package tiering implements the storage-tiering optimization the paper
// lists as future work (§VII: "it would be interesting to explore the
// impact of storage tiering policies under different datasets and
// models"). It is a self-contained data-plane building block in the
// paper's sense: a Backend that fronts a slow tier (parallel file system,
// NFS share) with a capacity-bounded fast tier (local NVMe). A file is a
// promotion candidate after a configurable number of accesses and enters
// free space unconditionally; once room has to be made it is admitted only
// over LRU-tail victims that are all strictly colder than it (roomLocked),
// decided before any compression work. DL training reads every file once
// per epoch (paper §IV), so over a working set larger than the tier every
// name is equally hot: ties decline, the resident set goes stable and the
// hit ratio is the tier's capacity fraction, where promote-on-every-miss
// LRU swapped one resident per read and hit almost never; a name that does
// become hotter than the residents still displaces them. In live mode the
// fast tier retains real payload bytes (pool-reference-retained, optionally
// LZ-compressed so the same byte budget holds more samples); in sim mode an
// optional storage.Device models the fast tier's transfer costs.
// PrefetchPlan warms the next epoch's cold samples into free fast-tier
// space while the current epoch trains.
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

// DefaultMaxTracked bounds the non-residents' access-count map when Config
// leaves MaxTracked zero. Large enough that decay is rare on realistic
// datasets, small enough that never-promoted names cannot grow memory epoch
// over epoch.
const DefaultMaxTracked = 64 << 10

// Config parameterizes the tiering policy.
type Config struct {
	// FastCapacity is the fast tier's byte budget (physical bytes: a
	// compressed resident charges its compressed size).
	FastCapacity int64
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
	// sample volume those bytes represent (equal unless Compress).
	FastUsed    int64
	FastLogical int64
	Capacity    int64
	Residents   int
	// TrackedNames is the size of the non-residents' access-count map;
	// AccessDecays counts the halving sweeps that bounded it.
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
	// accesses counts the reads of every name that is not resident; a
	// resident's count lives in its entry (so a hit costs no map access),
	// moving there on admission and back here on eviction.
	accesses map[string]int
	decays   int64
	// minStored is the smallest non-empty resident the tier has ever
	// admitted: with less free space than that the warmer has nothing to
	// offer and stops walking its plan.
	minStored int64

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
	declined     *metrics.Counter
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
		declined:     metrics.NewCounter(env),
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
// recorded in the name's access count so range-heavy workloads show up in
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
		if el, res := b.resident[req.Name]; res {
			el.Value.(*entry).count++ // a compressed resident: still a read of it
		} else {
			b.noteAccessLocked(req.Name)
		}
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
		e.count++
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
	// Tell the layers below whether this miss is about to become a resident
	// here, so the shared cache does not retain a second copy of it.
	req.Kept = req.Kept || b.willPromoteLocked(name)
	b.mu.Unlock()

	resp, err := b.slow.Read(req)
	if err != nil {
		return resp, err
	}
	data := resp.Data
	b.slowReads.Inc()

	// Decide under one lock hold: a name that became resident while this
	// read was in flight (a racing misser or the warmer won) needs neither
	// an access count nor a second resident copy prepared, and a candidate
	// the tier would refuse anyway is refused here, on its estimated stored
	// size — before the compression, the copy and the second lock round.
	b.mu.Lock()
	promote, earlier := false, 0
	if _, res := b.resident[name]; !res {
		b.noteAccessLocked(name)
		if n := b.accesses[name]; n >= b.cfg.PromoteAfter && data.Size <= b.cfg.FastCapacity {
			earlier = n - 1
			promote = b.roomLocked(b.estimateStoredLocked(data), earlier)
		}
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
	admitted := b.admitLocked(e, earlier)
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
// just before its next use. Nothing is evicted and nothing counted here, so
// the rule can also be asked ahead of a read. Caller holds b.mu.
func (b *Backend) fitsLocked(stored int64, earlier int) bool {
	need := b.used + stored - b.cfg.FastCapacity
	for el := b.order.Back(); need > 0; el = el.Prev() {
		if el == nil || el.Value.(*entry).count >= earlier {
			return false
		}
		need -= el.Value.(*entry).stored
	}
	return true
}

// willPromoteLocked predicts, before the slow read of a whole-file miss,
// whether the read will end in a promotion: the admission rule asked with
// the count the name has now and, its size being unknown until it is read,
// the residents' mean stored size. It changes no count and no counter; the
// decision after the read stands on its own, so a wrong prediction costs
// one sample held by two layers (predicted declined, promoted) or by none
// (predicted promoted, declined) until its next read. Caller holds b.mu.
func (b *Backend) willPromoteLocked(name string) bool {
	earlier := b.accesses[name]
	if earlier+1 < b.cfg.PromoteAfter {
		return false
	}
	var mean int64
	if n := len(b.resident); n > 0 {
		mean = b.used / int64(n)
	}
	return b.fitsLocked(mean, earlier)
}

// estimateStoredLocked predicts what a slow-tier read would charge against
// FastCapacity once prepared — its size scaled by the running stored/logical
// ratio of the residents when payloads are compressed — so the admission
// rule can run before the compression does. admitLocked re-checks with the
// exact size. Caller holds b.mu.
func (b *Backend) estimateStoredLocked(data storage.Data) int64 {
	if !b.cfg.Compress || data.Bytes == nil || b.logical == 0 {
		return data.Size
	}
	return int64(float64(data.Size) * float64(b.used) / float64(b.logical))
}

// admitLocked inserts the prepared entry, evicting the LRU residents
// roomLocked allows it to displace (none when earlier is 0, which is how
// the warmer never evicts). It reports whether the entry actually entered
// the tier — a duplicate (another reader won the race), an entry larger
// than the whole tier, or one with no strictly colder victims to make its
// exact stored size fit all decline, so an under-estimate at decision time
// cannot over-commit FastCapacity. Caller holds b.mu.
func (b *Backend) admitLocked(e *entry, earlier int) bool {
	if b.closed {
		return false
	}
	if _, dup := b.resident[e.name]; dup {
		return false
	}
	if e.stored > b.cfg.FastCapacity || !b.roomLocked(e.stored, earlier) {
		return false
	}
	for b.used+e.stored > b.cfg.FastCapacity {
		b.evictLocked(b.order.Back())
		b.evictions.Inc()
	}
	e.count = b.accesses[e.name]
	delete(b.accesses, e.name)
	b.resident[e.name] = b.order.PushFront(e)
	b.used += e.stored
	b.logical += e.size
	if e.stored > 0 && (b.minStored == 0 || e.stored < b.minStored) {
		b.minStored = e.stored
	}
	return true
}

// evictLocked removes one resident, releases its payload hold and hands its
// access count back to the non-residents' map, so a sample keeps its
// standing across eviction. Caller holds b.mu.
func (b *Backend) evictLocked(el *list.Element) {
	victim := el.Value.(*entry)
	b.order.Remove(el)
	delete(b.resident, victim.name)
	b.used -= victim.stored
	b.logical -= victim.size
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
	for el := b.order.Front(); el != nil; el = el.Next() {
		el.Value.(*entry).count /= 2
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

		for i, name := range plan {
			b.mu.Lock()
			stale := b.closed || b.planGen != gen
			_, res := b.resident[name]
			free := b.cfg.FastCapacity - b.used
			full := free < b.minStored
			b.mu.Unlock()
			if stale {
				break
			}
			if full {
				// Warming never evicts, so with less free space than the
				// smallest sample ever admitted the rest of the plan would
				// cost a slow-tier size probe per name and warm nothing.
				b.prefSkipped.Add(int64(len(plan) - i))
				break
			}
			if res || !b.warm(name, free) {
				b.prefSkipped.Inc()
			}
		}
		b.mu.Lock()
	}
}

// warm reads one non-resident plan entry from the slow tier into free
// fast-tier space and reports whether it was admitted.
func (b *Backend) warm(name string, free int64) bool {
	size, err := b.slow.Size(name)
	if err != nil || size > free {
		return false
	}
	// Warming runs off the consumer read path, so each warmed file gets
	// its own head-sampled trace instead of riding a read's.
	ctx := b.tracer.StartTrace()
	warmStart := b.env.Now()
	// The warmer only reads what it is about to keep (there is free space
	// for it), so the layers below need not.
	resp, err := b.slow.Read(storage.Request{Name: name, Ctx: ctx, Kept: true})
	if err != nil {
		return false
	}
	defer resp.Data.Release()
	// A demand miss may have admitted the name while the read was in
	// flight; do not compress a copy admitLocked would only throw away.
	if b.Resident(name) {
		return false
	}
	e := b.prepareEntry(name, resp.Data)
	b.mu.Lock()
	admitted := b.admitLocked(e, 0)
	b.mu.Unlock()
	if !admitted {
		e.drop()
		return false
	}
	b.prefPromoted.Inc()
	if b.fastDevice != nil {
		b.fastDevice.Write(e.stored)
	}
	if ctx.Sampled {
		b.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageTierWarm, Name: name, At: warmStart, Latency: b.env.Now() - warmStart, Size: e.stored})
	}
	return true
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
	e.count++
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
		Declined:           b.declined.Value(),
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
