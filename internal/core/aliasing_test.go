package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// aliasingStage builds a real-mode stage over a seeded MemBackend, with an
// optional debug pool, and returns the ground-truth content map.
func aliasingStage(t testing.TB, nFiles, shards int, pool *mempool.Pool) (*Stage, []string, map[string][]byte) {
	t.Helper()
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	names := make([]string, nFiles)
	truth := make(map[string][]byte, nFiles)
	for i := range names {
		names[i] = fmt.Sprintf("alias%03d.bin", i)
		truth[names[i]] = mem.AddSeeded(names[i], 1000+137*i, int64(i)+1)
	}
	if pool != nil {
		mem.SetBufferPool(pool)
	}
	pf, err := NewPrefetcher(env, mem, testManifest(names, 1000), PrefetcherConfig{
		InitialProducers:      2,
		MaxProducers:          4,
		InitialBufferCapacity: nFiles, // no producer parking: all samples in flight at once
		MaxBufferCapacity:     nFiles * 2,
		BufferShards:          shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(env, mem, pf)
	if pool != nil {
		st.SetBufferPool(pool)
	}
	pf.Start()
	t.Cleanup(func() { st.Close() })
	return st, names, truth
}

// TestPooledAliasingProperty is the aliasing lock-in: across randomized
// shapes (file counts, shard counts K=1 and sharded, pooling on and off),
// every delivered sample is byte-identical to its source, and no two
// samples held in flight at the same time share a backing array. The
// consumer deliberately holds every sample of the epoch unreleased before
// checking, so any buffer reuse while a reference is live would be caught
// both by the identity check and (in debug mode) by release poisoning.
func TestPooledAliasingProperty(t *testing.T) {
	prop := func(seed int64, filesRaw, shardsRaw uint8, usePool bool) bool {
		nFiles := int(filesRaw)%24 + 2
		shards := []int{1, 2, 4, 8}[int(shardsRaw)%4]
		var pool *mempool.Pool
		if usePool {
			pool = mempool.New(mempool.Config{Debug: true})
		}
		st, names, truth := aliasingStage(t, nFiles, shards, pool)

		plan := append([]string(nil), names...)
		rand.New(rand.NewSource(seed)).Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
		if err := st.SubmitPlan(plan); err != nil {
			return false
		}

		held := make([]storage.Data, 0, len(plan))
		firstByte := make(map[*byte]string, len(plan))
		okRun := true
		for _, n := range plan {
			d, _, err := st.Read(ReadRequest{Name: n})
			if err != nil || len(d.Bytes) == 0 {
				okRun = false
				break
			}
			// Identity: delivered bytes match the source exactly.
			if !bytes.Equal(d.Bytes, truth[n]) {
				t.Logf("seed %d: %s delivered bytes differ from source", seed, n)
				okRun = false
				break
			}
			// Aliasing: no sample in flight shares a backing array with
			// another. &b[0] identifies the array.
			if prev, dup := firstByte[&d.Bytes[0]]; dup {
				t.Logf("seed %d: %s and %s share a backing array", seed, n, prev)
				okRun = false
				break
			}
			firstByte[&d.Bytes[0]] = n
			held = append(held, d)
		}
		// Re-verify every held sample after the whole epoch was delivered:
		// a recycled-too-early buffer would have been overwritten by now.
		for _, d := range held {
			if !bytes.Equal(d.Bytes, truth[d.Name]) {
				t.Logf("seed %d: %s corrupted while held (buffer recycled under a live reference)", seed, d.Name)
				okRun = false
			}
		}
		for i := range held {
			held[i].Release()
		}
		if pool != nil {
			if got := pool.Stats().Outstanding; got != 0 {
				t.Logf("seed %d: %d leases outstanding after release\n%s", seed, got, mempool.FormatLeaks(pool.Leaks()))
				okRun = false
			}
			if pool.Stats().Gets == 0 {
				t.Logf("seed %d: pool never used — aliasing run was vacuous", seed)
				okRun = false
			}
		}
		return okRun
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDisabledABBitIdentical runs the identical seeded plan through a
// pooled and an unpooled stage and compares the delivered byte streams
// bit-for-bit: pooling must be invisible to the consumer.
func TestPoolDisabledABBitIdentical(t *testing.T) {
	const nFiles = 16
	deliver := func(pool *mempool.Pool) [][]byte {
		st, names, _ := aliasingStage(t, nFiles, 4, pool)
		plan := append([]string(nil), names...)
		rand.New(rand.NewSource(99)).Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
		if err := st.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, 0, len(plan))
		for _, n := range plan {
			d, _, err := st.Read(ReadRequest{Name: n})
			if err != nil {
				t.Fatalf("Read(%s): %v", n, err)
			}
			out = append(out, append([]byte(nil), d.Bytes...))
			d.Release()
		}
		return out
	}
	pooled := deliver(mempool.New(mempool.Config{Debug: true}))
	plain := deliver(nil)
	if len(pooled) != len(plain) {
		t.Fatalf("delivery counts differ: %d pooled, %d plain", len(pooled), len(plain))
	}
	for i := range pooled {
		if !bytes.Equal(pooled[i], plain[i]) {
			t.Fatalf("sample %d differs between pooled and unpooled delivery", i)
		}
	}
}
