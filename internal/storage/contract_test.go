package storage_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
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

// rowCases are the cases of every row of chain.Layers. The pack view has
// none here: it serves sample names, not the probe's byte ranges, and
// refuses ranged requests by contract, so recordio's
// TestIndexedBackendRequestClasses holds it to the request classes.
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
			{"tier-compress", tier(tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true})},
			// The second access admits: the first pass is a tracked miss, the
			// second a miss that promotes.
			{"tier-after-2", tier(tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 2})},
			// A budget smaller than the file: every whole-file miss is
			// declined, so every pass goes through the single-flight slot to
			// the leaf.
			{"tier-oversize", tier(tiering.Config{FastCapacity: storagetest.FileSize / 2, PromoteAfter: 1})},
			// The shared cache's recency window: every miss kept raw.
			{"cache-window", tier(tiering.Config{FastCapacity: 1 << 20, Window: 1 << 20, PromoteAfter: 1})},
		},
		"resilient": {
			{"resilient", chain.Config{Resilience: resilient(0)}},
			{"resilient-deadline", chain.Config{Resilience: resilient(50 * time.Millisecond)}},
		},
		"pack": nil,
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

// TestMiddlewareConformance runs the request-class table over every layer:
// bytes identical to the bare leaf, the ctx that entered is the ctx the
// leaf saw, Detail survives on the way up, ErrUnsupported surfaces
// unchanged, zero pooled refs outstanding.
func TestMiddlewareConformance(t *testing.T) {
	for _, layer := range middlewareLayers(t) {
		storagetest.Middleware(t, layer)
	}
}

// TestLeafConformance holds the leaves that carry real bytes to the same
// request-class table: the in-memory store and both bodies of the directory
// backend (the raw-descriptor one this platform builds, and the package-os
// one every other platform gets, forced through its test hook), pooled and
// not, so the bodies answer every class identically. The dir-pinned row is
// the directory backend given its manifest: every class is issued twice, so
// the second pass reads the file the first one pinned (where pinning exists).
func TestLeafConformance(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storagetest.FileName), storagetest.Content(), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := dataset.FromDir(dir)
	if err != nil {
		t.Fatal(err)
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
			mem.Add(storagetest.FileName, storagetest.Content())
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

// clampCases are the ranges that used to overflow the hand-copied clamp
// arithmetic (or size an allocation from the caller's N), with the window
// of a 4 KiB file each must truncate to.
var clampCases = []struct {
	r    storage.Range
	want storage.Range
}{
	{storage.Range{Off: 1, N: math.MaxInt64}, storage.Range{Off: 1, N: 4095}},
	{storage.Range{Off: 0, N: 1 << 50}, storage.Range{Off: 0, N: 4096}},
	{storage.Range{Off: 4096, N: 1}, storage.Range{Off: 4096, N: 0}},
	{storage.Range{Off: 5000, N: 10}, storage.Range{Off: 4096, N: 0}},
	{storage.Range{Off: 0, N: 0}, storage.Range{Off: 0, N: 0}},
}

// checkClamp issues every clamp case alone and as one K=3 vector mixing
// them, then the negative cases, against b.
func checkClamp(t *testing.T, b storage.Backend, hasBytes bool) {
	t.Helper()
	content := storagetest.Content()
	check := func(got storage.Data, r, want storage.Range) {
		t.Helper()
		if got.Size != want.N {
			t.Fatalf("%+v: %d bytes, want %d", r, got.Size, want.N)
		}
		if hasBytes && !bytes.Equal(got.Bytes, content[want.Off:want.Off+want.N]) {
			t.Fatalf("%+v: payload differs from file[%d:+%d]", r, want.Off, want.N)
		}
	}
	for _, c := range clampCases {
		req := storage.Request{Name: storagetest.FileName, Ranges: []storage.Range{c.r}}
		resp, err := b.Read(req)
		if err != nil {
			t.Fatalf("%+v: %v", c.r, err)
		}
		check(resp.Views[0], c.r, c.want)
		resp.Release(req)
	}
	vec := storage.Request{Name: storagetest.FileName, Ranges: []storage.Range{clampCases[0].r, clampCases[3].r, clampCases[1].r}}
	resp, err := b.Read(vec)
	if err != nil || len(resp.Views) != 3 {
		t.Fatalf("vector: %d views, %v", len(resp.Views), err)
	}
	for i, ci := range []int{0, 3, 1} {
		check(resp.Views[i], clampCases[ci].r, clampCases[ci].want)
	}
	resp.Release(vec)
	for _, bad := range []storage.Range{{Off: -1, N: 10}, {Off: 0, N: -1}, {Off: math.MinInt64, N: math.MaxInt64}} {
		req := storage.Request{Name: storagetest.FileName, Ranges: []storage.Range{{Off: 0, N: 1}, bad}}
		if resp, err := b.Read(req); err == nil || len(resp.Views) != 0 {
			t.Fatalf("negative range %+v: %d views, err %v; want the whole request to fail", bad, len(resp.Views), err)
		}
	}
}

// TestRangeClampNoOverflow pins the one overflow-safe clamp on every path
// that slices a file: the three leaves and a whole-file resident of the
// memory hierarchy. Reads past EOF truncate per contract — no
// panic, no allocation sized from the caller's N, no leaked reference.
func TestRangeClampNoOverflow(t *testing.T) {
	inSim := func(t *testing.T, body func(env conc.Env)) {
		t.Helper()
		s := sim.New()
		env := conc.NewSimEnv(s)
		s.Spawn("clamp", func(*sim.Process) { body(env) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	audit := func(t *testing.T, pool *mempool.Pool) {
		t.Helper()
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
		}
	}
	t.Run("mem", func(t *testing.T) {
		pool := mempool.New(mempool.Config{Debug: true})
		checkClamp(t, storagetest.NewProbe(pool), true)
		audit(t, pool)
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storagetest.FileName), storagetest.Content(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, pooled := range []bool{true, false} {
			b := storagetest.OpenDir(t, dir)
			pool := mempool.New(mempool.Config{Debug: true})
			if pooled {
				b.SetBufferPool(pool)
			}
			checkClamp(t, b, true)
			audit(t, pool)
		}
	})
	t.Run("modeled", func(t *testing.T) {
		inSim(t, func(env conc.Env) {
			dev, err := storage.NewDevice(env, storage.P4600())
			if err != nil {
				t.Fatal(err)
			}
			man := dataset.MustNew([]dataset.Sample{{Name: storagetest.FileName, Size: storagetest.FileSize}})
			checkClamp(t, storage.NewModeledBackend(man, dev), false)
		})
	})
	// A whole-file read first, so the ranges are sliced from the resident.
	warm := func(t *testing.T, b storage.Backend, probe *storagetest.Probe) {
		t.Helper()
		req := storage.Request{Name: storagetest.FileName}
		resp, err := b.Read(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release(req)
		before := probe.Calls
		checkClamp(t, b, true)
		// Only the negative requests reach the leaf (passed down to reject).
		if got := probe.Calls - before; got != 3 {
			t.Fatalf("%d requests reached the leaf, want 3 (the negatives): ranges were not served from the resident", got)
		}
	}
	t.Run("tiering-resident", func(t *testing.T) {
		pool := mempool.New(mempool.Config{Debug: true})
		inSim(t, func(env conc.Env) {
			probe := storagetest.NewProbe(pool)
			tb, err := tiering.NewBackend(env, tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1}, probe, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm(t, tb, probe)
			tb.Close()
		})
		audit(t, pool)
	})
	// A compressed resident is never sliced (that would decode the whole
	// record): every range, clamped or not, passes through to the leaf.
	t.Run("tiering-compressed-resident", func(t *testing.T) {
		pool := mempool.New(mempool.Config{Debug: true})
		inSim(t, func(env conc.Env) {
			probe := storagetest.NewProbe(pool)
			tb, err := tiering.NewBackend(env, tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1, Compress: true}, probe, nil)
			if err != nil {
				t.Fatal(err)
			}
			tb.SetBufferPool(pool)
			req := storage.Request{Name: storagetest.FileName}
			resp, err := tb.Read(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release(req)
			if st := tb.Stats(); st.Residents != 1 || st.FastLogical <= st.FastUsed {
				t.Fatalf("stats = %+v, want one compressed resident", st)
			}
			before := probe.Calls
			checkClamp(t, tb, true)
			if got, want := probe.Calls-before, len(clampCases)+1+3; got != want {
				t.Fatalf("%d requests reached the leaf, want all %d", got, want)
			}
			tb.Close()
		})
		audit(t, pool)
	})
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
