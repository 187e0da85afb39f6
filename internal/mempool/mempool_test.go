package mempool

import (
	"strings"
	"sync"
	"testing"
)

func TestSizeClassRouting(t *testing.T) {
	p := New(Config{MinSize: 1 << 10, MaxSize: 1 << 14, PerClassCap: 4})
	cases := []struct {
		n    int
		want int // backing array size
	}{
		{1, 1 << 10},
		{1 << 10, 1 << 10},
		{(1 << 10) + 1, 1 << 11},
		{1 << 12, 1 << 12},
		{1 << 14, 1 << 14},
	}
	for _, c := range cases {
		r := p.Get(c.n)
		if len(r.Bytes()) != c.n {
			t.Fatalf("Get(%d): len=%d", c.n, len(r.Bytes()))
		}
		if cap(r.buf) != c.want {
			t.Errorf("Get(%d): backing size %d, want %d", c.n, cap(r.buf), c.want)
		}
		r.Release()
	}
	// Oversize falls back to exact allocation, never recycled.
	r := p.Get((1 << 14) + 1)
	if r.cls != nil {
		t.Fatal("oversize Get was assigned a size class")
	}
	r.Release()
	if s := p.Stats(); s.Oversize != 1 {
		t.Fatalf("oversize count = %d, want 1", s.Oversize)
	}
}

func TestRecycleHitAndPoison(t *testing.T) {
	p := New(Config{MinSize: 64, MaxSize: 64, Debug: true})
	a := p.Get(40)
	buf := a.Bytes()
	for i := range buf {
		buf[i] = 7
	}
	a.Release()
	for i, b := range buf[:40] {
		if b != poisonByte {
			t.Fatalf("byte %d not poisoned after release: %#x", i, b)
		}
	}
	b2 := p.Get(40)
	if &b2.buf[0] != &buf[0] {
		t.Fatal("expected recycled backing array")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
	b2.Release()
}

func TestPerClassCapDiscards(t *testing.T) {
	p := New(Config{MinSize: 64, MaxSize: 64, PerClassCap: 2})
	refs := []*Ref{p.Get(10), p.Get(10), p.Get(10)}
	for _, r := range refs {
		r.Release()
	}
	s := p.Stats()
	if s.FreeBuffers != 2 {
		t.Fatalf("free buffers = %d, want cap 2", s.FreeBuffers)
	}
	if s.Recycled != 2 || s.Discarded != 1 {
		t.Fatalf("recycled=%d discarded=%d, want 2/1", s.Recycled, s.Discarded)
	}
}

func TestRetainReleaseCounting(t *testing.T) {
	p := New(Config{Debug: true})
	r := p.Get(100)
	r.Retain()
	r.Release()
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after partial release, want 1", p.Outstanding())
	}
	r.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", p.Outstanding())
	}
	if leaks := p.Leaks(); len(leaks) != 0 {
		t.Fatalf("unexpected leaks: %v", leaks)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New(Config{Debug: true})
	r := p.Get(10)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	p := New(Config{Debug: true})
	r := p.Get(10)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("retain-after-free did not panic")
		}
	}()
	r.Retain()
}

func TestLeakLedgerNamesCallSite(t *testing.T) {
	p := New(Config{Debug: true})
	r := p.Get(10) // this line is the leak site
	leaks := p.Leaks()
	if len(leaks) != 1 {
		t.Fatalf("leak ledger = %v, want one site", leaks)
	}
	for site := range leaks {
		if !strings.HasPrefix(site, "mempool_test.go:") {
			t.Fatalf("leak site %q does not point at the Get caller", site)
		}
	}
	if msg := FormatLeaks(leaks); !strings.Contains(msg, "1 outstanding") {
		t.Fatalf("FormatLeaks = %q", msg)
	}
	r.Release()
	if len(p.Leaks()) != 0 {
		t.Fatal("ledger not cleared after release")
	}
}

func TestStatsHitRate(t *testing.T) {
	p := New(Config{MinSize: 64, MaxSize: 64})
	p.Get(10).Release()
	p.Get(10).Release()
	s := p.Stats()
	if s.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", s.HitRate)
	}
	if len(s.Classes) != 1 || s.Classes[0].Size != 64 {
		t.Fatalf("class stats = %+v", s.Classes)
	}
}

// TestConcurrentGetRelease is the -race smoke: many goroutines churning one
// class must never corrupt the free list or the counters.
func TestConcurrentGetRelease(t *testing.T) {
	p := New(Config{MinSize: 1 << 10, MaxSize: 1 << 12, PerClassCap: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := p.Get(1 + (g*131+i*17)%(1<<12))
				r.Bytes()[0] = byte(i)
				if i%3 == 0 {
					r.Retain()
					r.Release()
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after churn", p.Outstanding())
	}
	s := p.Stats()
	if s.Gets != 4000 {
		t.Fatalf("gets = %d, want 4000", s.Gets)
	}
}

// TestSelfSizingStopsMissing: a workload that breathes 256 deep over one
// class misses only while it first fills; with PerClassCap unset every
// later cycle is all hits. With the cap set to 2 it is the documented hard
// cap: each drain keeps 2 and discards 254, so each refill misses 254.
// Unset is still bounded, by bytes: a 1 MiB class keeps 64 of a 256-deep
// burst, as the fixed default always did.
func TestSelfSizingStopsMissing(t *testing.T) {
	const depth, cycles = 256, 4
	size := 4096
	cycle := func(p *Pool) {
		refs := make([]*Ref, depth)
		for i := range refs {
			refs[i] = p.Get(size)
		}
		for _, r := range refs {
			r.Release()
		}
	}
	t.Run("unset", func(t *testing.T) {
		p := New(Config{})
		cycle(p)
		first := p.Stats()
		if first.Misses != depth || first.Discarded != 0 || first.FreeBuffers != depth {
			t.Fatalf("first cycle: %+v; want %d misses, all kept", first, depth)
		}
		for i := 1; i < cycles; i++ {
			cycle(p)
		}
		s := p.Stats()
		if s.Misses != depth || s.Discarded != 0 || s.Hits != depth*(cycles-1) {
			t.Fatalf("after %d cycles: misses %d (want %d, all in the first), hits %d, discarded %d", cycles, s.Misses, depth, s.Hits, s.Discarded)
		}
	})
	t.Run("unset, large class", func(t *testing.T) {
		size = 1 << 20
		defer func() { size = 4096 }()
		p := New(Config{})
		for i := 0; i < cycles; i++ {
			cycle(p)
		}
		s := p.Stats()
		keep := max(minFreePerClass, freeBytesPerClass/size)
		wantMisses := int64(depth + (cycles-1)*(depth-keep))
		if s.Misses != wantMisses || s.Discarded != int64(cycles*(depth-keep)) || s.FreeBytes != int64(keep*size) {
			t.Fatalf("misses %d (want %d), discarded %d (want %d), free bytes %d (want %d)", s.Misses, wantMisses, s.Discarded, cycles*(depth-keep), s.FreeBytes, keep*size)
		}
	})
	t.Run("cap=2", func(t *testing.T) {
		p := New(Config{PerClassCap: 2})
		for i := 0; i < cycles; i++ {
			cycle(p)
		}
		s := p.Stats()
		wantMisses := int64(depth + (cycles-1)*(depth-2))
		if s.Misses != wantMisses || s.Discarded != int64(cycles*(depth-2)) || s.FreeBuffers != 2 {
			t.Fatalf("misses %d (want %d), discarded %d (want %d), free %d (want 2)", s.Misses, wantMisses, s.Discarded, cycles*(depth-2), s.FreeBuffers)
		}
	})
}

// TestPooledBuffersBoundedByPeak pins the memory bound of a pool below its cap:
// whatever the order of gets and releases, the buffers a class holds —
// free plus outstanding — never exceed the most it ever had outstanding at
// once, and Peak is exactly that high-water mark.
func TestPooledBuffersBoundedByPeak(t *testing.T) {
	p := New(Config{MinSize: 1 << 10, MaxSize: 1 << 12})
	sizes := []int{100, 1 << 10, 1<<10 + 1, 1 << 11, 1 << 12}
	high := map[int]int{} // class size -> most outstanding seen
	live := map[int][]*Ref{}
	check := func(step int) {
		t.Helper()
		for _, cs := range p.Stats().Classes {
			if cs.Outstanding != len(live[cs.Size]) {
				t.Fatalf("step %d class %d: Outstanding %d, test holds %d", step, cs.Size, cs.Outstanding, len(live[cs.Size]))
			}
			if cs.Peak != high[cs.Size] {
				t.Fatalf("step %d class %d: Peak %d, high-water mark %d", step, cs.Size, cs.Peak, high[cs.Size])
			}
			if cs.Free+cs.Outstanding > cs.Peak {
				t.Fatalf("step %d class %d: %d free + %d outstanding > peak %d", step, cs.Size, cs.Free, cs.Outstanding, cs.Peak)
			}
		}
	}
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 5000; step++ {
		n := sizes[next(len(sizes))]
		cls := ceilPow2(max(n, 1<<10))
		// Bursts of gets, then bursts of releases, so depth really varies.
		if held := live[cls]; len(held) > 0 && next(100) < 45+10*(step/500%2) {
			i := next(len(held))
			held[i].Release()
			live[cls] = append(held[:i], held[i+1:]...)
		} else {
			live[cls] = append(held, p.Get(n))
			high[cls] = max(high[cls], len(live[cls]))
		}
		check(step)
	}
	for cls, held := range live {
		for _, r := range held {
			r.Release()
		}
		live[cls] = nil
	}
	check(-1)
	if s := p.Stats(); s.Discarded != 0 || s.Outstanding != 0 {
		t.Fatalf("end: %+v; want nothing discarded, nothing outstanding", s)
	}
}
