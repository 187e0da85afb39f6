package storage_test

import (
	"os"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// rowCase is one conformance case of a row of chain.Layers: a Config that
// turns that row on alone.
type rowCase struct {
	name string
	cfg  chain.Config
}

// rowCases are the cases of every row of chain.Layers.
func rowCases() map[string][]rowCase {
	resilient := func(deadline time.Duration) *storage.ResilienceConfig {
		cfg := storage.DefaultResilienceConfig()
		cfg.ReadDeadline = deadline
		return &cfg
	}
	tier := func(cfg tiering.Config) chain.Config { return chain.Config{Hierarchy: cfg} }
	return map[string][]rowCase{
		// The trace file is never written: the chain is not flushed.
		"recorder": {{"recorder", chain.Config{TraceFile: os.DevNull}}},
		"hierarchy": {
			{"tier", tier(tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1})},
			// No plan is sized, so the compressing tier encodes: the row
			// takes the encoded path.
			{"tier-compress", tier(tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true})},
			// The second access admits: the first pass is a tracked miss, the
			// second a miss that promotes.
			{"tier-after-2", tier(tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 2})},
			// A budget half the probe's file: every miss of that file is
			// declined, so every pass goes through the single-flight slot
			// to the leaf.
			{"tier-oversize", tier(tiering.Config{FastCapacity: storagetest.FileSize / 2, PromoteAfter: 1})},
			// The shared cache's recency window: every miss kept raw.
			{"cache-window", tier(tiering.Config{FastCapacity: 1 << 20, Window: 1 << 20, PromoteAfter: 1})},
		},
		"resilient": {
			{"resilient", chain.Config{Resilience: resilient(0)}},
			{"resilient-deadline", chain.Config{Resilience: resilient(50 * time.Millisecond)}},
		},
	}
}

// middlewareLayers is the conformance table: every row of chain.Layers,
// folded alone over the probe leaf, plus the fault injector and the sims'
// reader count (leaf wrappers, not rows). A row without an entry in rowCases fails the table. Unexported
// wrappers — distrib's link, experiments' counting store — call
// storagetest.Middleware from their own package's tests.
func middlewareLayers(t *testing.T) []storagetest.Layer {
	cases := rowCases()
	var out []storagetest.Layer
	for _, row := range chain.Layers {
		rc, ok := cases[row.Name]
		if !ok {
			t.Fatalf("chain row %q has no conformance case in rowCases", row.Name)
		}
		for _, c := range rc {
			row, c := row.Name, c
			out = append(out, storagetest.Layer{Name: c.name, Build: func(t *testing.T, env conc.Env, leaf storage.Backend, pool *mempool.Pool) storagetest.Built {
				ch := &chain.Chain{Env: env, Pool: pool, Backend: leaf}
				if err := ch.Fold(c.cfg); err != nil {
					t.Fatal(err)
				}
				if len(ch.Built) != 1 || ch.Built[0] != row {
					t.Fatalf("%s: folded %v, want [%s]", c.name, ch.Built, row)
				}
				b := storagetest.Built{Backend: ch.Backend, Close: ch.Close}
				if c.cfg.Resilience != nil {
					b.Resilience = func() storage.ResilienceStats {
						var s core.StageStats
						ch.Snapshot(&s)
						return s.Resilience
					}
				}
				return b
			}})
		}
	}
	return append(out, storagetest.Layer{Name: "faulty", Build: func(_ *testing.T, env conc.Env, leaf storage.Backend, _ *mempool.Pool) storagetest.Built {
		return storagetest.Built{Backend: storage.NewFaultyBackend(env, leaf)}
	}}, storagetest.Layer{Name: "reader-count", Build: func(_ *testing.T, env conc.Env, leaf storage.Backend, _ *mempool.Pool) storagetest.Built {
		return storagetest.Built{Backend: storage.NewReaderCount(env, leaf)}
	}})
}

// TestMiddlewareConformance runs the read table over every layer: bytes
// identical to the bare leaf, the ctx that entered is the ctx the leaf saw,
// Detail survives on the way up, a missing name's typed error surfaces
// unchanged, zero pooled refs outstanding.
func TestMiddlewareConformance(t *testing.T) {
	for _, layer := range middlewareLayers(t) {
		storagetest.Middleware(t, layer)
	}
}

// TestLeafConformance holds the leaves that carry real bytes to the same
// read table: the in-memory store and both bodies of the directory backend
// (the raw-descriptor one this platform builds, and the package-os one
// every other platform gets, forced through its test hook), pooled and not,
// so the bodies answer identically. The dir-pinned row is the directory
// backend given its manifest: every read is issued twice, so the second
// pass reads the file the first one pinned (where pinning exists).
func TestLeafConformance(t *testing.T) {
	dir := t.TempDir()
	storagetest.WriteDir(t, dir)
	manifest, err := dataset.FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The table's slot hints are positions in storagetest.Names: the
	// manifest must list the files in that order, or a stale hint could
	// name the file it is sent with.
	if got, want := manifest.Names().Len(), len(storagetest.Names()); got != want {
		t.Fatalf("manifest holds %d files, want %d", got, want)
	}
	for i, n := range storagetest.Names() {
		if got := manifest.Names().Name(i); got != n {
			t.Fatalf("manifest slot %d is %q, want %q", i+1, got, n)
		}
	}
	dirLeaf := func(portable, pinned bool) func(*testing.T, *mempool.Pool) storage.Backend {
		return func(t *testing.T, pool *mempool.Pool) storage.Backend {
			b := storagetest.OpenDir(t, dir)
			if portable {
				b.ForcePortable()
			}
			if pinned {
				b.SetManifest(manifest)
			}
			b.SetBufferPool(pool)
			return b
		}
	}
	leaves := []struct {
		name  string
		build func(*testing.T, *mempool.Pool) storage.Backend
	}{
		{"mem", func(_ *testing.T, pool *mempool.Pool) storage.Backend {
			mem := storage.NewMemBackend()
			storagetest.Fill(mem)
			mem.SetBufferPool(pool)
			return mem
		}},
		{"dir", dirLeaf(false, false)},
		{"dir-pinned", dirLeaf(false, true)},
		{"dir-portable", dirLeaf(true, false)},
	}
	for _, leaf := range leaves {
		for _, pooled := range []bool{true, false} {
			storagetest.Leaf(t, leaf.name, pooled, leaf.build)
		}
	}
}

// TestResilientReadAllocs pins the per-read closure fix: with no read
// deadline the resilient layer adds nothing to a pooled MemBackend read —
// 0 allocs/op, breaker on, as Open builds it by default.
func TestResilientReadAllocs(t *testing.T) {
	if storage.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	mem := storage.NewMemBackend()
	mem.AddSeeded("f", 4096, 1)
	mem.SetBufferPool(mempool.New(mempool.Config{}))
	rb, err := storage.NewResilientBackend(conc.NewReal(), mem, storage.DefaultResilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := storage.Request{Name: "f"}
	for name, b := range map[string]storage.Backend{"bare": mem, "resilient": rb} {
		allocs := testing.AllocsPerRun(200, func() {
			resp, err := b.Read(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Data.Release()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per whole-file read, want 0", name, allocs)
		}
	}
}
