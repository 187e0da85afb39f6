package mempool

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// inside reports whether b lies within mem.
func inside(mem, b []byte) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(mem)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= base && p+uintptr(cap(b)) <= base+uintptr(len(mem))
}

// TestArenaCarvesThenFallsBack: misses carve aligned, disjoint buffers from
// the arena until it is full, then allocate from the heap; carved buffers
// recycle past the class's cap, heap ones do not, and the stats report the
// arena's size and how much of it is carved.
func TestArenaCarvesThenFallsBack(t *testing.T) {
	p := New(Config{MinSize: 1 << 10, MaxSize: 1 << 14, PerClassCap: 1})
	mem := make([]byte, 5<<12)
	if err := p.AttachArena(mem, func() { t.Error("released while attached") }); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachArena(make([]byte, 1<<12), nil); err == nil {
		t.Fatal("a second arena was attached")
	}
	// A 1 KiB buffer, then 4 KiB ones, which start on a page: the first
	// leaves a 3 KiB gap.
	small := p.Get(1 << 10)
	var big []*Ref
	for i := 0; i < 5; i++ {
		big = append(big, p.Get(1<<12))
	}
	if !inside(mem, small.Bytes()) || small.arena == nil {
		t.Fatal("the first miss was not carved from the arena")
	}
	for i, r := range big[:4] {
		off := uintptr(unsafe.Pointer(unsafe.SliceData(r.buf))) - uintptr(unsafe.Pointer(unsafe.SliceData(mem)))
		if !inside(mem, r.buf) || off != uintptr(i+1)<<12 {
			t.Fatalf("4 KiB buffer %d at offset %d, want %d", i, off, (i+1)<<12)
		}
	}
	if last := big[4]; last.arena != nil || inside(mem, last.buf) {
		t.Fatal("a miss past the arena's end was carved from it")
	}
	if s := p.Stats(); s.ArenaCapacity != int64(len(mem)) || s.ArenaCarved != int64(len(mem)) {
		t.Fatalf("arena stats %d of %d carved, want %d of %d", s.ArenaCarved, s.ArenaCapacity, len(mem), len(mem))
	}
	for _, r := range big {
		r.Release()
	}
	small.Release()
	// Every carved buffer recycles past the cap of one; the heap buffer
	// finds its class's free list full of them and goes.
	if s := p.Stats(); s.FreeBuffers != 5 || s.Discarded != 1 {
		t.Fatalf("%d buffers free and %d discarded, want 5 and 1", s.FreeBuffers, s.Discarded)
	}
}

// TestArenaDetachWaitsForLeases: detaching drops the carved buffers on the
// free lists at once and each one on a lease when it comes home; release
// runs once, after the last, and the pool carves no more.
func TestArenaDetachWaitsForLeases(t *testing.T) {
	p := New(Config{MinSize: 1 << 12, MaxSize: 1 << 12, Debug: true})
	mem := make([]byte, 4<<12)
	var released atomic.Int32
	if err := p.AttachArena(mem, func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	a, b, c := p.Get(100), p.Get(100), p.Get(100)
	c.Release() // on the free list when the arena goes
	p.DetachArena()
	if s := p.Stats(); s.FreeBuffers != 0 || s.ArenaCapacity != 0 {
		t.Fatalf("after detach: %d free buffers, arena of %d bytes", s.FreeBuffers, s.ArenaCapacity)
	}
	a.Release()
	if released.Load() != 0 {
		t.Fatal("released with a carved buffer still on a lease")
	}
	if d := p.Get(100); d.arena != nil || inside(mem, d.buf) {
		t.Fatal("a detached arena was carved")
	} else {
		d.Release()
	}
	b.Release()
	if released.Load() != 1 {
		t.Fatalf("released %d times once every carved buffer was home, want 1", released.Load())
	}
	p.DetachArena() // nothing attached: no-op
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("%d leases outstanding", got)
	}
}

// TestArenaConcurrentDetach: leases taken and returned on several
// goroutines while the arena is detached end with release run exactly
// once and no carved buffer left on a free list.
func TestArenaConcurrentDetach(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := New(Config{MinSize: 1 << 12, MaxSize: 1 << 14})
		mem := make([]byte, 16<<12)
		var released atomic.Int32
		if err := p.AttachArena(mem, func() { released.Add(1) }); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					r := p.Get(1 << (12 + (g+i)%3))
					r.Bytes()[0] = byte(i)
					r.Release()
				}
			}(g)
		}
		p.DetachArena()
		wg.Wait()
		if released.Load() != 1 {
			t.Fatalf("round %d: released %d times, want 1", round, released.Load())
		}
		for _, cls := range p.classes {
			for _, r := range cls.free {
				if r.arena != nil {
					t.Fatalf("round %d: a carved buffer stayed on a free list", round)
				}
			}
		}
	}
}

// TestRetireDropsUnwritten: a retired buffer's final release neither
// recycles nor poisons it — carved or from the heap — and a retired carved
// buffer lets go of its arena reference; one detached under a lease is not
// poisoned either, while a plain release still is.
func TestRetireDropsUnwritten(t *testing.T) {
	p := New(Config{MinSize: 1 << 12, MaxSize: 1 << 12, Debug: true})
	mem := make([]byte, 2<<12)
	var released atomic.Int32
	if err := p.AttachArena(mem, func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	fill := func(r *Ref, b byte) []byte {
		for i := range r.Bytes() {
			r.Bytes()[i] = b
		}
		return r.Bytes()
	}
	unwritten := func(what string, b []byte, want byte) {
		t.Helper()
		for _, got := range b {
			if got != want {
				t.Fatalf("%s: byte %#x, want %#x", what, got, want)
			}
		}
	}
	carved, detached, heap := p.Get(100), p.Get(100), p.Get(100)
	if carved.arena == nil || detached.arena == nil || heap.arena != nil {
		t.Fatal("want two carved buffers and a heap one")
	}
	cb, db, hb := fill(carved, 1), fill(detached, 2), fill(heap, 3)
	carved.Retire()
	heap.Retire()
	carved.Retain()
	carved.Release() // not the final release: nothing happens yet
	carved.Release()
	heap.Release()
	unwritten("retired carved buffer", cb, 1)
	unwritten("retired heap buffer", hb, 3)
	if s := p.Stats(); s.FreeBuffers != 0 || s.Discarded != 2 || s.Recycled != 0 {
		t.Fatalf("%d free, %d discarded, %d recycled; want 0, 2, 0", s.FreeBuffers, s.Discarded, s.Recycled)
	}
	p.DetachArena()
	detached.Release()
	unwritten("carved buffer home after detach", db, 2)
	if released.Load() != 1 {
		t.Fatalf("released %d times, want 1", released.Load())
	}
	plain := p.Get(100)
	pb := fill(plain, 4)
	plain.Release()
	unwritten("plain release", pb[:1], poisonByte)
}

// TestClassSize: the size of the buffer a Get leases, clamped to the
// largest class.
func TestClassSize(t *testing.T) {
	p := New(Config{MinSize: 1 << 12, MaxSize: 1 << 16})
	for n, want := range map[int]int{0: 1 << 12, 1: 1 << 12, 4096: 1 << 12, 4097: 1 << 13, 1 << 16: 1 << 16, 1<<16 + 1: 1 << 16, 1 << 30: 1 << 16} {
		if got := p.ClassSize(n); got != want {
			t.Errorf("ClassSize(%d) = %d, want %d", n, got, want)
		}
	}
}
