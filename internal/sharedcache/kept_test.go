package sharedcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

func readKept(b storage.Backend, name string) (storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name, Kept: true})
	return resp.Data, err
}

// TestKeptMissLeavesNothing pins the exclusive half of the hierarchy: a
// read whose caller keeps the payload (the tier above, about to promote it)
// is served by one device read and retained by nobody here, so the same
// name read again is a device read again — and a plain read of it is
// admitted exactly as before.
func TestKeptMissLeavesNothing(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 2, 1000, time.Millisecond, 2)
		c, _ := New(env, backend, 1<<20)
		for i := 1; i <= 2; i++ {
			if _, err := readKept(c, names[0]); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Residents != 0 || st.UsedBytes != 0 || st.DeviceReads != int64(i) || dev.Stats().Reads != int64(i) {
				t.Fatalf("after Kept miss %d: %+v, device reads %d; want nothing resident, %d device reads", i, st, dev.Stats().Reads, i)
			}
		}
		if _, err := readFile(c, names[0]); err != nil {
			t.Fatal(err)
		}
		if !c.Resident(names[0]) {
			t.Fatal("a plain miss must still be admitted")
		}
	})
}

// TestKeptHitDropsResident: a name the cache holds (the tier declined it
// earlier) that the tier now takes is served from memory and forgotten, so
// it is never resident in both layers.
func TestKeptHitDropsResident(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 1, 1000, time.Millisecond, 1)
		pool := mempool.New(mempool.Config{Debug: true})
		backend.SetBufferPool(pool)
		c, _ := New(env, backend, 1<<20)
		d, _ := readFile(c, names[0])
		d.Release()
		d, err := readKept(c, names[0])
		if err != nil || d.Ref == nil {
			t.Fatalf("Kept hit = %+v, %v", d, err)
		}
		if st := c.Stats(); st.Hits != 1 || st.Residents != 0 || st.UsedBytes != 0 || dev.Stats().Reads != 1 {
			t.Fatalf("Kept hit: %+v, device reads %d; want a hit that leaves nothing resident", st, dev.Stats().Reads)
		}
		if got := d.Ref.Refs(); got != 1 {
			t.Fatalf("refs after a Kept hit = %d, want 1 (the caller's only)", got)
		}
		d.Release()
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("outstanding refs = %d, want 0", n)
		}
	})
}

// TestKeptLeaderHandsOffToFollowers is the one sharing case the tier cannot
// cover: readers already waiting on the key when a Kept read completes.
// They are served from a hand-off entry — one device read for all — and the
// entry leaves with the last of them.
func TestKeptLeaderHandsOffToFollowers(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, dev, names := fixture(env, 2, 1000, 10*time.Millisecond, 8)
		pool := mempool.New(mempool.Config{Debug: true})
		backend.SetBufferPool(pool)
		c, _ := New(env, backend, 1<<20)
		const readers = 5
		got := make([]storage.Data, readers)
		wg := env.NewWaitGroup()
		wg.Add(readers)
		for i := 0; i < readers; i++ {
			i := i
			env.Go(fmt.Sprintf("reader-%d", i), func() {
				defer wg.Done()
				// reader-0 runs first and leads; two followers carry the hint
				// too (racing tier misses), two do not.
				resp, err := c.Read(storage.Request{Name: names[0], Kept: i%2 == 0})
				if err != nil {
					t.Errorf("read: %v", err)
				}
				got[i] = resp.Data
			})
		}
		wg.Wait()
		st := c.Stats()
		if dev.Stats().Reads != 1 || st.DeviceReads != 1 || st.Waits != readers-1 || st.Hits != readers-1 {
			t.Fatalf("device reads %d, stats %+v; want one read shared by %d followers", dev.Stats().Reads, st, readers-1)
		}
		if st.Residents != 0 || st.UsedBytes != 0 {
			t.Fatalf("hand-off entry outlived its waiters: %+v", st)
		}
		for i := range got {
			if got[i].Size != 1000 || !bytes.Equal(got[i].Bytes, got[0].Bytes) {
				t.Fatalf("reader %d got %d bytes, differing from the leader's", i, got[i].Size)
			}
		}
		for i := range got {
			got[i].Release()
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("outstanding refs = %d, want 0: %v", n, pool.Leaks())
		}
	})
}

// gated is a pooled in-memory leaf whose reads block until open is closed,
// so a test can park followers behind a leader under real threads.
type gated struct {
	*storage.MemBackend
	open chan struct{}
}

func (g gated) Read(req storage.Request) (storage.Response, error) {
	<-g.open
	return g.MemBackend.Read(req)
}

// TestKeptSingleFlightConcurrent is the same hand-off under real threads
// (run with -race): N readers of one key, the leader Kept, one device read,
// byte-identical payloads, nothing resident and nothing leased once every
// reader has released.
func TestKeptSingleFlightConcurrent(t *testing.T) {
	const readers = 8
	mem := storage.NewMemBackend()
	want := mem.AddSeeded("s", 10_000, 23)
	pool := mempool.New(mempool.Config{Debug: true})
	mem.SetBufferPool(pool)
	leaf := gated{mem, make(chan struct{})}
	c, _ := New(conc.NewReal(), leaf, 1<<20)

	var wg sync.WaitGroup
	read := func(kept bool) {
		defer wg.Done()
		resp, err := c.Read(storage.Request{Name: "s", Kept: kept})
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(resp.Data.Bytes, want) {
			t.Errorf("payload differs from the leaf's content")
		}
		resp.Data.Release()
	}
	wg.Add(readers)
	go read(true)
	for c.Stats().DeviceReads == 0 { // the leader is at the leaf
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < readers; i++ {
		go read(i%2 == 0)
	}
	for c.Stats().Waits < readers-1 { // every follower is parked behind it
		time.Sleep(time.Millisecond)
	}
	close(leaf.open)
	wg.Wait()

	st := c.Stats()
	if st.DeviceReads != 1 || st.Hits != readers-1 {
		t.Fatalf("stats %+v; want one device read and %d hand-off hits", st, readers-1)
	}
	if st.Residents != 0 || st.UsedBytes != 0 {
		t.Fatalf("hand-off entry outlived its waiters: %+v", st)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("outstanding refs = %d, want 0: %v", n, pool.Leaks())
	}
}

// TestChargesWhatItPins: a pooled resident is charged the size class of the
// buffer the cache retains, not the payload's length, so the capacity
// bounds the memory the residents hold; an unpooled resident pins its own
// length and is charged that.
func TestChargesWhatItPins(t *testing.T) {
	const files, size, class = 8, 5000, 8192
	build := func(pool *mempool.Pool) (*Cache, []string) {
		mem := storage.NewMemBackend()
		names := make([]string, files)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
			mem.AddSeeded(names[i], size, int64(i))
		}
		mem.SetBufferPool(pool)
		c, _ := New(conc.NewReal(), mem, 4*class)
		return c, names
	}
	readAll := func(c *Cache, names []string) {
		for _, n := range names {
			d, err := readFile(c, n)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
		}
	}

	pool := mempool.New(mempool.Config{Debug: true})
	c, names := build(pool)
	readAll(c, names)
	// By payload length six would fit (6 x 5000 <= 32768); they pin 8 KiB each.
	if st := c.Stats(); st.Residents != 4 || st.UsedBytes != 4*class || st.Evictions != files-4 {
		t.Fatalf("pooled: %+v; want 4 residents charged %d each", st, class)
	}
	if n := pool.Outstanding(); n != 4 {
		t.Fatalf("pool has %d buffers out, want the 4 residents'", n)
	}
	c.Close()
	if st := c.Stats(); st.UsedBytes != 0 || pool.Outstanding() != 0 {
		t.Fatalf("after Close: %+v, %d buffers out", st, pool.Outstanding())
	}

	c, names = build(nil)
	readAll(c, names)
	if st := c.Stats(); st.Residents != 6 || st.UsedBytes != 6*size {
		t.Fatalf("unpooled: %+v; want 6 residents charged their length", st)
	}
}

// TestRangedHitAllocatesNothing pins the comparable key: a one-range read
// served from its own cache entry (the packed-shard path) builds no key
// string, so hit or miss the lookup costs no heap object.
func TestRangedHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	mem := storage.NewMemBackend()
	mem.AddSeeded("shard", 64<<10, 1)
	mem.SetBufferPool(mempool.New(mempool.Config{}))
	c, _ := New(conc.NewReal(), mem, 1<<20)
	req := storage.Request{Name: "shard", Ranges: []storage.Range{{Off: 4096, N: 1000}}, Out: make([]storage.Data, 0, 1)}
	read := func() {
		resp, err := c.Read(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release(req)
	}
	read() // miss: admits the range entry
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("ranged cache hit allocates %v/op, want 0", allocs)
	}
	if st := c.Stats(); st.DeviceReads != 1 || st.Hits < 1000 {
		t.Fatalf("the pin did not measure hits: %+v", st)
	}
}
