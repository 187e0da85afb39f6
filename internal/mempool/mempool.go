// Package mempool provides size-classed, reference-counted sample buffers
// for the PRISMA data plane. The hot path moves one payload per sample from
// the storage backend through the prefetch buffer and out an IPC frame; a
// fresh []byte per hop makes the Go GC, not the storage device, the
// throughput ceiling at scale. The pool recycles payload buffers across
// samples so the steady-state allocation rate on the read path is ~zero.
//
// Ownership model (DESIGN.md §11): a Ref is created with one reference held
// by the caller of Get. Passing a Ref to another stage transfers that
// reference; the receiver must eventually Release it (or Retain first if it
// wants to keep the bytes alive past the hand-off). Because the prefetch
// buffer evicts on read, single ownership moves producer → buffer →
// consumer without any Retain in the steady state.
//
// A pool may carve its buffers from one arena (AttachArena): a span of
// memory the caller made, such as a shared mapping other processes read
// (DESIGN.md §29). Carved buffers recycle like any other and are never
// given back to the heap; once the arena is full, misses allocate from the
// heap as before.
//
// The package is deliberately environment-free: it uses plain sync.Mutex
// and atomics rather than conc.Env primitives. Under the deterministic
// simulator only one process runs at a time, so uncontended mutexes and
// atomics introduce no scheduling nondeterminism, and the same pool code
// serves both real and simulated runs.
package mempool

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// poisonByte overwrites released buffers in debug mode so use-after-release
// reads surface as corrupted data instead of silent aliasing.
const poisonByte = 0xDB

// Config sizes the pool. Zero values select defaults.
type Config struct {
	// MinSize is the smallest size class in bytes (default 4 KiB). Gets
	// smaller than MinSize are served from the MinSize class.
	MinSize int
	// MaxSize is the largest size class in bytes (default 4 MiB). Gets
	// larger than MaxSize fall back to plain allocation (still tracked).
	MaxSize int
	// PerClassCap bounds how many free buffers each size class retains;
	// releases beyond the cap discard the buffer to the GC. Zero (the
	// default) sizes the cap per class by bytes: freeBytesPerClass worth
	// of buffers, and never fewer than minFreePerClass (2048 x 4 KiB down
	// to 64 x 128 KiB, then 64 of every larger class). Below that cap a
	// class keeps every buffer it has handed out — a new one is allocated
	// only when the free list is empty, so free + outstanding never
	// exceeds the class's own high-water mark (ClassStats.Peak) — and a
	// workload that breathes within the cap stops missing after its first
	// cycle. Memory a burst pushed onto a free list stays there until the
	// pool is dropped; the cap is what bounds it.
	PerClassCap int
	// Debug enables leak tracking by Get call-site, poison-on-release, and
	// panics on double-release / retain-after-free. Test builds turn this
	// on; production keeps it off to avoid the bookkeeping.
	Debug bool
}

func (c Config) withDefaults() Config {
	if c.MinSize <= 0 {
		c.MinSize = 4 << 10
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 4 << 20
	}
	if c.MaxSize < c.MinSize {
		c.MaxSize = c.MinSize
	}
	// Round both bounds up to powers of two so class index math is shifts.
	c.MinSize = ceilPow2(c.MinSize)
	c.MaxSize = ceilPow2(c.MaxSize)
	return c
}

// With PerClassCap unset a class's free list holds up to freeBytesPerClass
// of buffers and at least minFreePerClass of them: small classes, which the
// prefetch buffer cycles through by the hundred, stop missing, and a burst
// of large buffers pins no more than the fixed 64 per class always did.
const (
	freeBytesPerClass = 8 << 20
	minFreePerClass   = 64
)

// freeCap is the free-list bound of the class of the given size.
func (c Config) freeCap(size int) int {
	if c.PerClassCap > 0 {
		return c.PerClassCap
	}
	return max(minFreePerClass, freeBytesPerClass/size)
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// class is one power-of-two size bucket with its own free list. Ref structs
// are recycled along with their buffers so a pool hit allocates nothing.
type class struct {
	size int
	keep int // most free buffers retained (Config.freeCap)
	mu   sync.Mutex
	free []*Ref
	out  int // buffers of this class currently leased
	peak int // high-water mark of out
}

// Pool hands out reference-counted buffers bucketed into power-of-two size
// classes. The zero value is not usable; construct with New.
type Pool struct {
	cfg     Config
	classes []*class
	minBits int

	gets        atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	oversize    atomic.Int64
	recycled    atomic.Int64
	discarded   atomic.Int64
	outstanding atomic.Int64

	// Debug-mode leak ledger: Get call-site → refs not yet fully released.
	siteMu sync.Mutex
	sites  map[string]int

	// arena is nil when no arena is attached, so a miss in a pool without
	// one never takes arenaMu, which serializes carving.
	arenaMu sync.Mutex
	arena   atomic.Pointer[arena]
}

// arena is the memory AttachArena gave the pool. Buffers are carved from
// it by bumping used and never returned to it: a carved buffer cycles
// between its class's free list and its leases until the arena is
// detached, and is dropped after that.
type arena struct {
	mem  []byte
	used int // bytes carved, alignment gaps included; under Pool.arenaMu
	// detached is set once, by DetachArena: from then on a carved buffer
	// that comes home is dropped instead of recycled.
	detached atomic.Bool
	// refs is 1 for the attachment plus 1 per carved buffer not yet
	// dropped; release runs when it reaches 0.
	refs    atomic.Int64
	release func()
}

// drop lets go of one of the arena's references.
func (a *arena) drop() {
	if a.refs.Add(-1) == 0 {
		a.release()
	}
}

// New constructs a pool from cfg (zero Config means defaults).
func New(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, minBits: bits.TrailingZeros(uint(cfg.MinSize))}
	for sz := cfg.MinSize; sz <= cfg.MaxSize; sz <<= 1 {
		p.classes = append(p.classes, &class{size: sz, keep: cfg.freeCap(sz)})
	}
	if cfg.Debug {
		p.sites = make(map[string]int)
	}
	return p
}

// Debug reports whether the pool was built with leak tracking enabled.
func (p *Pool) Debug() bool { return p.cfg.Debug }

// classFor maps a requested length to its size class, or nil when the
// request exceeds MaxSize (oversize requests are plain allocations).
func (p *Pool) classFor(n int) *class {
	if n > p.cfg.MaxSize {
		return nil
	}
	idx := 0
	if n > p.cfg.MinSize {
		idx = bits.Len(uint(n-1)) - p.minBits
	}
	return p.classes[idx]
}

// ClassSize reports the size of the buffer a Get of n bytes leases from
// its class, clamped to the largest class: a larger Get is a plain
// allocation of its own size.
func (p *Pool) ClassSize(n int) int {
	if cls := p.classFor(max(n, 0)); cls != nil {
		return cls.size
	}
	return p.cfg.MaxSize
}

// Get returns a Ref whose Bytes() slice has length n, with one reference
// held by the caller. The backing array may be recycled from an earlier
// Release and contains arbitrary bytes; callers overwrite it in full.
func (p *Pool) Get(n int) *Ref {
	if n < 0 {
		panic("mempool: Get with negative length")
	}
	p.gets.Add(1)
	p.outstanding.Add(1)
	cls := p.classFor(n)
	var r *Ref
	if cls == nil {
		p.oversize.Add(1)
		r = &Ref{pool: p, buf: make([]byte, n)}
	} else {
		cls.mu.Lock()
		if cls.out++; cls.out > cls.peak {
			cls.peak = cls.out
		}
		if l := len(cls.free); l > 0 {
			r = cls.free[l-1]
			cls.free[l-1] = nil
			cls.free = cls.free[:l-1]
			cls.mu.Unlock()
			p.hits.Add(1)
		} else {
			cls.mu.Unlock()
			p.misses.Add(1)
			r = &Ref{pool: p, cls: cls}
			if r.buf, r.arena = p.carve(cls.size); r.buf == nil {
				r.buf = make([]byte, cls.size)
			}
		}
	}
	r.n = n
	r.refs.Store(1)
	if p.cfg.Debug {
		r.site = callSite(2)
		p.siteMu.Lock()
		p.sites[r.site]++
		p.siteMu.Unlock()
	}
	return r
}

// release is called by Ref.Release on the final reference.
func (p *Pool) release(r *Ref) {
	p.outstanding.Add(-1)
	if p.cfg.Debug {
		p.siteMu.Lock()
		p.sites[r.site]--
		if p.sites[r.site] <= 0 {
			delete(p.sites, r.site)
		}
		p.siteMu.Unlock()
		// Poison the full backing array, not just [:n], so stale aliases
		// into recycled capacity are caught too — unless the bytes may
		// still be read where the pool cannot see: a retired buffer, or
		// one carved from an arena that is detached while its clients
		// still map it. Those are dropped, never written again.
		if !r.retired.Load() && (r.arena == nil || !r.arena.detached.Load()) {
			for i := range r.buf {
				r.buf[i] = poisonByte
			}
		}
	}
	cls := r.cls
	if cls == nil {
		p.discarded.Add(1)
		return
	}
	cls.mu.Lock()
	cls.out--
	if a := r.arena; a != nil {
		// A carved buffer cannot go back to the heap: it recycles whatever
		// the cap, until it is retired or the arena is detached.
		// DetachArena strips the free lists under the same lock after
		// setting detached, so no carved buffer is left on one.
		if !r.retired.Load() && !a.detached.Load() {
			cls.free = append(cls.free, r)
			cls.mu.Unlock()
			p.recycled.Add(1)
			return
		}
		cls.mu.Unlock()
		p.discarded.Add(1)
		a.drop()
		return
	}
	if !r.retired.Load() && len(cls.free) < cls.keep {
		cls.free = append(cls.free, r)
		cls.mu.Unlock()
		p.recycled.Add(1)
		return
	}
	cls.mu.Unlock()
	p.discarded.Add(1)
}

// AttachArena makes mem the memory the pool carves new buffers from: a Get
// that finds its class's free list empty takes the next free span of mem
// that fits the class (aligned to the class size, up to a page) before it
// allocates from the heap. A pool has one arena at most; attaching a
// second fails. release runs once, after DetachArena, when no buffer carved
// from mem is left on a lease: the caller may unmap mem then.
func (p *Pool) AttachArena(mem []byte, release func()) error {
	p.arenaMu.Lock()
	defer p.arenaMu.Unlock()
	if p.arena.Load() != nil {
		return fmt.Errorf("mempool: an arena is already attached")
	}
	a := &arena{mem: mem, release: release}
	a.refs.Store(1)
	p.arena.Store(a)
	return nil
}

// DetachArena stops carving from the attached arena and drops its buffers
// from the free lists; each one still on a lease is dropped when it comes
// home, and the last to go runs the arena's release. No-op without an
// arena.
func (p *Pool) DetachArena() {
	p.arenaMu.Lock()
	a := p.arena.Swap(nil)
	p.arenaMu.Unlock()
	if a == nil {
		return
	}
	a.detached.Store(true)
	var stripped int64
	for _, cls := range p.classes {
		cls.mu.Lock()
		kept := cls.free[:0]
		for _, r := range cls.free {
			if r.arena == a {
				stripped++
			} else {
				kept = append(kept, r)
			}
		}
		clear(cls.free[len(kept):])
		cls.free = kept
		cls.mu.Unlock()
	}
	a.refs.Add(-stripped)
	a.drop()
}

// carve takes size bytes from the attached arena, or returns nil when there
// is none or it has no room left.
func (p *Pool) carve(size int) ([]byte, *arena) {
	if p.arena.Load() == nil {
		return nil, nil
	}
	p.arenaMu.Lock()
	defer p.arenaMu.Unlock()
	a := p.arena.Load()
	if a == nil {
		return nil, nil
	}
	align := min(size, carveAlign)
	off := (a.used + align - 1) &^ (align - 1)
	if off+size > len(a.mem) {
		return nil, nil
	}
	a.used = off + size
	a.refs.Add(1)
	return a.mem[off : off+size : off+size], a
}

// carveAlign is the most a carved buffer is aligned to: a page, as the
// heap aligns large allocations, so copies between carved and heap
// buffers run aligned to each other.
const carveAlign = 4 << 10

// Outstanding reports how many refs are currently live (created and not yet
// fully released).
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// Leaks returns the debug-mode ledger of Get call-sites with refs still
// outstanding, mapping "file.go:123" to the live count. Nil when Debug is
// off. An end-of-epoch audit asserts the map is empty.
func (p *Pool) Leaks() map[string]int {
	if !p.cfg.Debug {
		return nil
	}
	p.siteMu.Lock()
	defer p.siteMu.Unlock()
	out := make(map[string]int, len(p.sites))
	for k, v := range p.sites {
		out[k] = v
	}
	return out
}

// ClassStats describes one size class: its free list, the buffers out on
// lease, and the most it ever had out at once (Free + Outstanding never
// exceeds Peak).
type ClassStats struct {
	Size        int `json:"size"`
	Free        int `json:"free"`
	Outstanding int `json:"outstanding"`
	Peak        int `json:"peak"`
}

// Stats is a point-in-time snapshot of pool behaviour.
type Stats struct {
	Gets        int64        `json:"gets"`
	Hits        int64        `json:"hits"`
	Misses      int64        `json:"misses"`
	Oversize    int64        `json:"oversize"`
	Recycled    int64        `json:"recycled"`
	Discarded   int64        `json:"discarded"`
	Outstanding int64        `json:"outstanding"`
	FreeBuffers int          `json:"free_buffers"`
	FreeBytes   int64        `json:"free_bytes"`
	HitRate     float64      `json:"hit_rate"`
	Classes     []ClassStats `json:"classes,omitempty"`
	// ArenaCapacity is the size of the attached arena and ArenaCarved how
	// much of it buffers have been carved from (zero without one).
	ArenaCapacity int64 `json:"arena_capacity_bytes"`
	ArenaCarved   int64 `json:"arena_carved_bytes"`
}

// Stats snapshots the pool counters and per-class free lists.
func (p *Pool) Stats() Stats {
	s := Stats{
		Gets:        p.gets.Load(),
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Oversize:    p.oversize.Load(),
		Recycled:    p.recycled.Load(),
		Discarded:   p.discarded.Load(),
		Outstanding: p.outstanding.Load(),
	}
	for _, cls := range p.classes {
		cls.mu.Lock()
		cs := ClassStats{Size: cls.size, Free: len(cls.free), Outstanding: cls.out, Peak: cls.peak}
		cls.mu.Unlock()
		s.FreeBuffers += cs.Free
		s.FreeBytes += int64(cs.Free) * int64(cls.size)
		s.Classes = append(s.Classes, cs)
	}
	if pooled := s.Gets - s.Oversize; pooled > 0 {
		s.HitRate = float64(s.Hits) / float64(pooled)
	}
	if a := p.arena.Load(); a != nil {
		p.arenaMu.Lock()
		s.ArenaCapacity, s.ArenaCarved = int64(len(a.mem)), int64(a.used)
		p.arenaMu.Unlock()
	}
	return s
}

// Ref is one reference-counted buffer lease. Bytes() is valid until the
// holder's reference is Released; after the final Release the backing array
// may be handed to another sample at any moment (and is poisoned first in
// debug builds).
type Ref struct {
	pool  *Pool
	cls   *class
	arena *arena // the arena buf was carved from; nil for a heap buffer
	buf   []byte
	n     int
	refs  atomic.Int32
	// retired is set by Retire: the final release drops the buffer.
	retired atomic.Bool
	site    string
}

// Bytes returns the leased payload slice (length = the Get request).
func (r *Ref) Bytes() []byte { return r.buf[:r.n] }

// Len reports the payload length without materialising the slice header.
func (r *Ref) Len() int { return r.n }

// Cap reports the size of the backing buffer the lease pins — its size
// class, not the requested length — which is what a layer that retains refs
// against a byte budget must charge.
func (r *Ref) Cap() int { return len(r.buf) }

// Retain adds a reference. It panics if the buffer has already been fully
// released — retaining a recycled buffer is always a lifecycle bug.
func (r *Ref) Retain() {
	for {
		old := r.refs.Load()
		if old <= 0 {
			panic(fmt.Sprintf("mempool: Retain of released buffer (from %s)", r.site))
		}
		if r.refs.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// Retire marks the buffer as one that may still be read where the pool
// cannot see — by a process copying it out of a shared arena whose
// connection was dropped under it — so its final release drops it instead
// of poisoning or recycling it. It keeps the caller's reference; a retired
// arena buffer takes its span of the arena out of use for good.
func (r *Ref) Retire() { r.retired.Store(true) }

// Release drops one reference; the final release poisons (debug) and
// recycles the buffer. Releasing more times than retained panics: the
// extra release would free a buffer some other holder still trusts.
func (r *Ref) Release() {
	n := r.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("mempool: double release (from %s)", r.site))
	}
	r.pool.release(r)
}

// callSite formats the caller's file:line for the leak ledger.
func callSite(skip int) string {
	var pcs [1]uintptr
	if runtime.Callers(skip+1, pcs[:]) == 0 {
		return "unknown"
	}
	frame, _ := runtime.CallersFrames(pcs[:]).Next()
	file := frame.File
	for i := len(file) - 1; i >= 0; i-- {
		if file[i] == '/' {
			file = file[i+1:]
			break
		}
	}
	return fmt.Sprintf("%s:%d", file, frame.Line)
}

// FormatLeaks renders a leak ledger deterministically for test failures.
func FormatLeaks(leaks map[string]int) string {
	if len(leaks) == 0 {
		return "no leaks"
	}
	keys := make([]string, 0, len(leaks))
	for k := range leaks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("  %s: %d outstanding\n", k, leaks[k])
	}
	return out
}
