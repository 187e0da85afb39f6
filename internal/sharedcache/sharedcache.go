// Package sharedcache implements a multi-job sample cache — the paper's
// §VII "Access coordination to shared datasets" direction ("it is common
// to have multiple DL jobs (that are oblivious of each other) operating
// concurrently over the same dataset"). Unlike PRISMA's evict-on-read
// training buffer, this cache *retains* samples after a read so a second
// job training on the same dataset is served from memory instead of
// hitting the shared device again (the Quiver insight, lifted into a
// decoupled data-plane building block with system-wide visibility).
//
// The cache is keyed by file name and bounded in bytes with LRU eviction;
// single-flight admission collapses concurrent misses on the same file
// into one device read, which is where most of the multi-job saving comes
// from when jobs run in loose lockstep.
//
// Under a layer that keeps what it reads (the fast tier, storage.Request.Kept)
// the cache is the exclusive lower level of the hierarchy: it still
// single-flights such a read but retains it only to hand it to followers
// already waiting, so a sample is resident in the tier or here, not both.
package sharedcache

import (
	"container/list"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// Stats snapshots cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Waits     int64 // misses collapsed onto another job's in-flight read
	Evictions int64
	// UsedBytes is what the residents pin, which is what the capacity
	// bounds: a pooled resident counts its buffer's size class (the cache
	// holds the whole buffer, not just the payload's length), an unpooled or
	// modeled one its payload size.
	UsedBytes   int64
	Residents   int
	DeviceReads int64 // misses that actually hit the backend
	// WaitTime is the cumulative time followers spent blocked on another
	// job's in-flight fetch — the cache's contribution to the attribution
	// split (always on, independent of trace sampling).
	WaitTime time.Duration
}

// Cache is a byte-bounded, single-flight, LRU sample cache over a shared
// backend. It implements storage.Backend so any number of PRISMA stages
// (one per job) can stack on top of it.
type Cache struct {
	env      conc.Env
	inner    storage.Backend
	capacity int64

	mu        conc.Mutex
	fetchDone conc.Cond
	resident  map[key]*list.Element
	order     *list.List // front = MRU
	// inflight holds the keys being fetched. The slot stays nil until a
	// follower arrives, so a miss nobody joins allocates nothing.
	inflight map[key]*flight
	used     int64
	closed   bool // Close ran: reads still pass through, nothing is admitted

	hits      *metrics.Counter
	misses    *metrics.Counter
	waits     *metrics.Counter
	waitTime  *metrics.Counter // nanoseconds followers spent coalesced
	evictions *metrics.Counter
	devReads  *metrics.Counter

	tracer *obs.Tracer // nil-safe: spans only for sampled reads
}

// key identifies a cached object: one byte range of a file (the records of
// a packed shard), or the whole file as n = wholeFile — no valid range has
// a negative length, so the two cannot collide. Comparable, so looking one
// up allocates nothing.
type key struct {
	name   string
	off, n int64
}

const wholeFile = -1

func fileKey(name string) key { return key{name: name, n: wholeFile} }

// flight is one in-flight fetch that followers joined: how many of them
// have yet to collect its result.
type flight struct{ waiters int }

// entry is one resident sample. When the backend serves pooled payloads,
// the cache retains its own reference for as long as the entry is resident
// (ref non-nil): recycling the buffer while it sits in the cache would
// hand later hits a poisoned or reused backing array. Each hit retains one
// more reference on the caller's behalf; eviction and invalidation release
// the cache's.
type entry struct {
	key    key
	size   int64
	charge int64  // bytes counted against capacity: what the entry pins
	bytes  []byte // nil under modeled backends
	ref    *mempool.Ref
	// handoff is non-nil for the result of a Kept read admitted only for
	// the followers of that flight: the entry leaves with the last of them.
	handoff *flight
}

// New builds a cache of capacity bytes over inner.
func New(env conc.Env, inner storage.Backend, capacity int64) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("sharedcache: capacity %d < 1", capacity)
	}
	c := &Cache{
		env:       env,
		inner:     inner,
		capacity:  capacity,
		mu:        env.NewMutex(),
		resident:  make(map[key]*list.Element),
		order:     list.New(),
		inflight:  make(map[key]*flight),
		hits:      metrics.NewCounter(env),
		misses:    metrics.NewCounter(env),
		waits:     metrics.NewCounter(env),
		waitTime:  metrics.NewCounter(env),
		evictions: metrics.NewCounter(env),
		devReads:  metrics.NewCounter(env),
	}
	c.fetchDone = env.NewCond(c.mu)
	return c, nil
}

// SetTracer attaches the lifecycle tracer: sampled reads then record
// sharedcache-hit/miss/coalesce spans. Nil (the default) disables spans;
// the wait-time counter stays on either way.
func (c *Cache) SetTracer(t *obs.Tracer) { c.tracer = t }

// Read implements storage.Backend with single-flight caching, dispatching
// on the request class. A whole-file read is cached under its name. A
// one-range read is sliced in place from a whole-file resident (zero-copy,
// retaining the cache's pool reference on the caller's behalf) or else
// cached under its own (name, off, n) key, so concurrent tenants re-reading
// the same record of a packed shard pay the device once instead of once
// each. A vectored read is sliced from a whole-file resident or
// forwarded as one device read serving K ranges, without admitting
// per-range entries (a coalesced batch is already the economical access
// pattern; caching its K slices would churn the LRU). Hit, miss and
// single-flight-coalesce spans land on the read's trace when it is
// sampled, so a follower's wait on another job's fetch is visible to
// attribution. Negative ranges pass through for the inner backend to
// reject.
//
// A Kept read (the caller retains the payload itself) is single-flighted
// like any other but leaves nothing behind: its result is admitted only if
// followers are waiting on the key, as a hand-off entry the last of them
// removes, and a resident it hits is served and dropped.
func (c *Cache) Read(req storage.Request) (storage.Response, error) {
	if req.Validate() != nil {
		return c.inner.Read(req)
	}
	k := len(req.Ranges)
	if k > 0 {
		c.mu.Lock()
		views, ok := c.sliceResidentLocked(req)
		c.mu.Unlock()
		if ok {
			c.hits.Add(int64(k))
			return storage.Response{Views: views}, nil
		}
	}
	if k > 1 {
		c.misses.Add(int64(k))
		c.devReads.Inc()
		return c.inner.Read(req)
	}
	ck := fileKey(req.Name)
	if k == 1 {
		ck.off, ck.n = req.Ranges[0].Off, req.Ranges[0].N
	}
	name, ctx := req.Name, req.Ctx
	var waitStart, waited time.Duration
	var joined *flight // the fetch this read is counted on as a follower
	c.mu.Lock()
	for {
		if el, ok := c.resident[ck]; ok {
			e := el.Value.(*entry)
			if e.ref != nil {
				// Hand the caller its own reference while the cache's keeps
				// the entry alive; the caller releases as usual (§11).
				e.ref.Retain()
			}
			d := storage.Data{Name: name, Size: e.size, Bytes: e.bytes, Ref: e.ref}
			switch {
			case e.handoff != nil:
				if e.handoff == joined {
					if joined.waiters--; joined.waiters == 0 {
						c.evictLocked(el)
					}
				}
			case req.Kept && joined == nil:
				// The caller keeps it from here on. (Not after a wait: other
				// followers of the same fetch may still be on their way.)
				c.evictLocked(el)
			default:
				c.order.MoveToFront(el)
			}
			c.mu.Unlock()
			c.hits.Inc()
			c.noteWait(ctx, name, waitStart, waited)
			if ctx.Sampled {
				c.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageCacheHit, Name: name, At: c.env.Now(), Size: d.Size})
			}
			if k == 1 {
				return storage.Response{Views: append(req.Out, d)}, nil
			}
			return storage.Response{Data: d}, nil
		}
		f, busy := c.inflight[ck]
		if !busy {
			break
		}
		// Another job is already fetching this key: wait for it instead
		// of issuing a duplicate device read.
		if f == nil {
			f = new(flight)
			c.inflight[ck] = f
		}
		if f != joined {
			f.waiters++
			joined = f
		}
		c.waits.Inc()
		begin := c.env.Now()
		if waited == 0 {
			waitStart = begin
		}
		c.fetchDone.Wait()
		waited += c.env.Now() - begin
	}
	c.inflight[ck] = nil
	c.mu.Unlock()
	c.noteWait(ctx, name, waitStart, waited)

	c.misses.Inc()
	c.devReads.Inc()
	fetchStart := time.Duration(0)
	if ctx.Sampled {
		fetchStart = c.env.Now()
	}
	resp, err := c.inner.Read(req)
	data := resp.Data
	if k == 1 && err == nil {
		data = resp.Views[len(req.Out)]
	}
	if ctx.Sampled {
		sp := obs.Span{Trace: ctx.Trace, Stage: obs.StageCacheMiss, Name: name, At: fetchStart, Latency: c.env.Now() - fetchStart, Size: data.Size}
		if err != nil {
			sp.Error = err.Error()
		}
		c.tracer.Record(sp)
	}

	c.mu.Lock()
	followers := c.inflight[ck]
	delete(c.inflight, ck)
	if err == nil {
		switch {
		case !req.Kept:
			c.admit(ck, data, nil)
		case followers != nil:
			c.admit(ck, data, followers)
		}
	}
	c.fetchDone.Broadcast()
	c.mu.Unlock()
	return resp, err
}

// noteWait folds one completed coalesced wait into the always-on wait-time
// counter and, for sampled reads, records the follower's coalesce span.
func (c *Cache) noteWait(ctx obs.Ctx, name string, start, waited time.Duration) {
	if waited <= 0 {
		return
	}
	c.waitTime.Add(int64(waited))
	if ctx.Sampled {
		c.tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageCacheCoalesce, Name: name, At: start, Latency: waited})
	}
}

// admit inserts the fetched sample, evicting LRU residents until what it
// pins fits. The cache retains its own pooled reference (the fetcher's
// stays with the fetcher) and therefore the reference's whole buffer, so
// that is what a pooled entry is charged. handoff marks the result of a
// Kept read, resident only until the followers counted on it have each
// taken it. Caller holds c.mu.
func (c *Cache) admit(k key, data storage.Data, handoff *flight) {
	charge := data.Size
	if data.Ref != nil {
		charge = int64(data.Ref.Cap())
	}
	if _, dup := c.resident[k]; dup || c.closed || charge > c.capacity {
		return
	}
	for c.used+charge > c.capacity {
		c.evictLocked(c.order.Back())
		c.evictions.Inc()
	}
	if data.Ref != nil {
		data.Ref.Retain()
	}
	c.resident[k] = c.order.PushFront(&entry{key: k, size: data.Size, charge: charge, bytes: data.Bytes, ref: data.Ref, handoff: handoff})
	c.used += charge
}

// evictLocked removes one resident entry and drops the cache's pooled
// reference. Caller holds c.mu.
func (c *Cache) evictLocked(el *list.Element) {
	victim := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.resident, victim.key)
	c.used -= victim.charge
	if victim.ref != nil {
		victim.ref.Release()
		victim.ref = nil
		victim.bytes = nil
	}
}

// Size implements storage.Backend.
func (c *Cache) Size(name string) (int64, error) { return c.inner.Size(name) }

// sliceResidentLocked serves a ranged request as views of a whole-file
// resident appended to req.Out, each clamped per the read contract and
// retaining the cache's reference on the caller's behalf. Caller holds
// c.mu.
func (c *Cache) sliceResidentLocked(req storage.Request) ([]storage.Data, bool) {
	el, ok := c.resident[fileKey(req.Name)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*entry)
	whole := storage.Data{Name: req.Name, Size: e.size, Bytes: e.bytes, Ref: e.ref}
	views := req.Out
	for _, r := range req.Ranges {
		if e.ref != nil {
			e.ref.Retain()
		}
		views = append(views, whole.Slice(r))
	}
	return views, true
}

// Resident reports whether name is cached.
func (c *Cache) Resident(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.resident[fileKey(name)]
	return ok
}

// Invalidate drops one cached sample (for dataset updates), releasing the
// cache's pooled reference.
func (c *Cache) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.resident[fileKey(name)]; ok {
		c.evictLocked(el)
	}
}

// Close drops every resident entry, releasing the cache's pooled
// references so end-of-run leak audits see a clean pool, and admits nothing
// from then on: a producer read still in flight when the instance closes
// must not park a lease in a cache nobody will close again.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for el := c.order.Back(); el != nil; el = c.order.Back() {
		c.evictLocked(el)
	}
}

// Stats snapshots cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	used, n := c.used, len(c.resident)
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Waits:       c.waits.Value(),
		Evictions:   c.evictions.Value(),
		UsedBytes:   used,
		Residents:   n,
		DeviceReads: c.devReads.Value(),
		WaitTime:    time.Duration(c.waitTime.Value()),
	}
}

// HitRate reports hits / (hits + misses), zero before any traffic.
func (c *Cache) HitRate() float64 {
	h, m := c.hits.Value(), c.misses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
