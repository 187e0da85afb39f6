// Hot-path allocation benchmark: the measurement behind the zero-copy
// sample path. One cell runs the full pipeline — MemBackend read, producer
// prefetch, buffer park, evict-on-read Take, IPC frame, client decode —
// with C concurrent consumers over a UNIX socket, and reports allocations
// per delivered sample. The pooled and unpooled variants differ only in
// whether a mempool is attached, so their ratio isolates the allocator's
// contribution to the contended read path.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// AllocConfig parameterizes one allocation-benchmark cell.
type AllocConfig struct {
	// Files and FileSize define the in-memory dataset (defaults 64 files
	// of 64 KiB — inside the pool's size classes).
	Files    int
	FileSize int
	// Consumers is the number of concurrent IPC clients C (default 4).
	Consumers int
	// Producers is the prefetching thread count t (default 4).
	Producers int
	// BufferCap is the buffer capacity N (default 8: small enough that
	// producers still park while the benchmark timer is stopped for plan
	// submission, so almost all prefetch work lands in the timed region).
	BufferCap int
	// Pool selects the pooled (true) or allocate-per-hop (false) variant.
	Pool bool
	// SharedCache, when positive, interposes the memory hierarchy as
	// prisma.Open builds it for Tenancy.SharedCacheBytes alone (raw, kept
	// from the first read) with that many bytes between the pipeline and
	// the backend — the multi-tenant co-location tier. Sized above the
	// dataset it converges to all-hits, so the cell measures the cache's
	// own contribution to the hot path.
	SharedCache int64
	// Compressed packs the dataset (compressible patterned payloads) into
	// LZ-compressed recordio shards held in memory and serves them through
	// an IndexedBackend, so the cell measures the transparent-decompression
	// read path: ranged shard read, CRC check, in-place decode into a
	// pooled buffer.
	Compressed bool
	// Resilient interposes the retry/breaker layer at its defaults, as
	// prisma.Open does unless DisableResilience is set, so the cell's chain
	// matches what Open builds by default.
	Resilient bool
	// Batch, when > 1, packs the dataset into one uncompressed recordio
	// shard and enables the plan-aware read coalescer at that run budget,
	// so the cell measures the vectored read path: FIFO runs fetched by
	// one ranged read each, split into per-sample views aliasing the
	// shared region buffer. A cell whose coalescer never engages fails.
	Batch int
	// Inline dials clients that never ask for a payload region (DESIGN.md
	// §28), so every payload rides the socket, as against a server that
	// predates the region.
	Inline bool
	// Arena serves without tenants, so the pool is carved from a shared
	// arena (DESIGN.md §29) the clients are granted in place of regions;
	// otherwise the server has a tenant manager and grants regions.
	Arena bool
}

func (c AllocConfig) withDefaults() AllocConfig {
	if c.Files == 0 {
		c.Files = 64
	}
	if c.FileSize == 0 {
		c.FileSize = 64 << 10
	}
	if c.Consumers == 0 {
		c.Consumers = 4
	}
	if c.Producers == 0 {
		c.Producers = 4
	}
	if c.BufferCap == 0 {
		c.BufferCap = 8
	}
	return c
}

// AllocBenchmark returns the benchmark body for one cell, usable both from
// `go test -bench` (BenchmarkHotPathAllocs) and from a plain binary via
// testing.Benchmark (prisma-bench alloc). One benchmark op is one sample
// delivered end to end through the socket.
func AllocBenchmark(cfg AllocConfig) func(b *testing.B) {
	cfg = cfg.withDefaults()
	return func(b *testing.B) {
		env := conc.NewReal()
		mem := storage.NewMemBackend()
		var pool *mempool.Pool
		if cfg.Pool {
			// One pool for every layer that allocates payloads.
			pool = mempool.New(mempool.Config{})
			mem.SetBufferPool(pool)
		}
		names := make([]string, cfg.Files)
		for i := range names {
			names[i] = fmt.Sprintf("alloc%04d.bin", i)
		}
		var layers chain.Config
		if cfg.Compressed || cfg.Batch > 1 {
			// Pack compressible payloads (AddSeeded's pseudo-random content
			// would defeat the codec) into one in-memory shard. The batched
			// cell packs the same records uncompressed, so its per-sample
			// views alias the vectored read's region buffer directly.
			payloads := make([][]byte, len(names))
			for i := range payloads {
				payloads[i] = CompressibleSample(i, cfg.FileSize, 0.25)
			}
			ix, err := recordio.PackMem(mem, "alloc/shard-00000.rec", names, payloads, cfg.Compressed)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.Compressed && ix.StoredBytes >= ix.PayloadBytes {
				b.Fatal("alloc: patterned payloads did not compress")
			}
			layers.Index = ix
		} else {
			for i, name := range names {
				mem.AddSeeded(name, cfg.FileSize, int64(i)+1)
			}
		}
		if cfg.SharedCache > 0 {
			layers.Hierarchy = tiering.Config{FastCapacity: cfg.SharedCache, Window: cfg.SharedCache, PromoteAfter: 1}
		}
		if cfg.Resilient {
			r := storage.DefaultResilienceConfig()
			layers.Resilience = &r
		}
		ch := &chain.Chain{Env: env, Pool: pool, Backend: mem}
		if err := ch.Fold(layers); err != nil {
			b.Fatal(err)
		}
		defer ch.Close()
		pf, err := core.NewPrefetcher(env, ch.Backend, uniformManifest(names, int64(cfg.FileSize)), core.PrefetcherConfig{
			InitialProducers:      cfg.Producers,
			MaxProducers:          cfg.Producers,
			InitialBufferCapacity: cfg.BufferCap,
			MaxBufferCapacity:     cfg.BufferCap,
			BatchSamples:          cfg.Batch,
			Coalescer:             ch.Coalescer,
		})
		if err != nil {
			b.Fatal(err)
		}
		stage := core.NewStage(env, ch.Backend, pf)
		stage.SetBufferPool(pool)
		pf.Start()
		defer stage.Close()

		// os.MkdirTemp rather than b.TempDir: the body also runs outside
		// `go test` via testing.Benchmark (prisma-bench alloc), where the
		// testing cleanup machinery is not active.
		tmp, err := os.MkdirTemp("", "prisma-alloc")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		sock := filepath.Join(tmp, "alloc.sock")
		var serve ipc.ServeConfig
		if !cfg.Arena {
			// Only the server hears of the tenants: reads pass no gate.
			if serve.Tenants, err = tenancy.New(env, tenancy.Config{Capacity: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
		srv, err := ipc.ServeWithConfig(sock, stage, nil, serve)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()

		clients := make([]*ipc.Client, cfg.Consumers)
		for i := range clients {
			c, err := ipc.DialWithConfig(sock, ipc.DialConfig{InlineOnly: cfg.Inline})
			if err != nil {
				b.Fatal(err)
			}
			if cfg.Pool {
				// Each worker process owns its receive pool, as a real
				// multi-process loader would.
				c.SetBufferPool(mempool.New(mempool.Config{}))
			}
			clients[i] = c
			defer c.Close()
		}

		// Disjoint per-consumer subsets: every planned name is read exactly
		// once per epoch, split across the C clients.
		subsets := make([][]string, cfg.Consumers)
		for i, n := range names {
			subsets[i%cfg.Consumers] = append(subsets[i%cfg.Consumers], n)
		}

		runEpoch := func(timed bool) {
			if timed {
				// Plan submission is control-plane work, once per epoch, not
				// part of the per-sample path under test.
				b.StopTimer()
			}
			if err := stage.SubmitPlan(names); err != nil {
				b.Fatal(err)
			}
			if timed {
				b.StartTimer()
			}
			var wg sync.WaitGroup
			errs := make(chan error, cfg.Consumers)
			for ci := range clients {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					for _, n := range subsets[ci] {
						d, err := clients[ci].Read(n)
						if err != nil {
							errs <- fmt.Errorf("read %s: %w", n, err)
							return
						}
						if int(d.Size) != cfg.FileSize {
							errs <- fmt.Errorf("read %s: size %d, want %d", n, d.Size, cfg.FileSize)
							return
						}
						d.Release()
					}
				}(ci)
			}
			wg.Wait()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		}

		// Warm-up epoch: fills the pool's free lists (first-touch Gets are
		// misses by construction) and the clients' scratch buffers, so the
		// timed region measures steady state.
		runEpoch(false)

		b.ReportAllocs()
		b.SetBytes(int64(cfg.FileSize))
		b.ResetTimer()
		for delivered := 0; delivered < b.N; delivered += len(names) {
			runEpoch(true)
		}
		b.StopTimer()
		if cfg.Batch > 1 && pf.BatchedSamples() == 0 {
			b.Fatal("alloc: the coalescer never engaged: every sample was read on its own")
		}
		var stashHits int64
		for _, c := range clients {
			stashHits += c.StashHits()
		}
		b.ReportMetric(float64(stashHits)/float64(b.N), stashHitsMetric)
		st := stage.Stats()
		payloads := float64(max(st.ArenaPayloads+st.RegionPayloads+st.InlinePayloads, 1))
		b.ReportMetric(float64(st.RegionPayloads)/payloads, regionShareMetric)
		b.ReportMetric(float64(st.ArenaPayloads)/payloads, arenaShareMetric)
	}
}

// stashHitsMetric names the benchmark metric reporting which share of the
// delivered samples the clients took from their read-ahead stash — reads
// that never touched the socket.
const stashHitsMetric = "stash-hits/op"

// regionShareMetric names the benchmark metric reporting which share of
// the payloads the server sent crossed in a payload region rather than
// inline on the socket.
const regionShareMetric = "region-share"

// arenaShareMetric is regionShareMetric for the shared arena.
const arenaShareMetric = "arena-share"

// AllocResult is one measured cell of the allocation sweep.
type AllocResult struct {
	Config      AllocConfig
	AllocsPerOp int64
	BytesPerOp  int64
	NsPerOp     int64
	Ops         int
	// StashHitsPerOp is the share of delivered samples served from the
	// clients' read-ahead stashes (warm-up epoch included in the count, so
	// it can slightly exceed the timed region's true share).
	StashHitsPerOp float64
	// RegionShare is the share of payloads that crossed in a payload
	// region, and ArenaShare of those read in the shared arena (warm-up
	// epoch included).
	RegionShare float64
	ArenaShare  float64
}

// RunAllocCell measures one cell with the standard benchmark machinery.
func RunAllocCell(cfg AllocConfig) AllocResult {
	r := testing.Benchmark(AllocBenchmark(cfg))
	return AllocResult{
		Config:      cfg,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		NsPerOp:     r.NsPerOp(),
		Ops:         r.N,

		StashHitsPerOp: r.Extra[stashHitsMetric],
		RegionShare:    r.Extra[regionShareMetric],
		ArenaShare:     r.Extra[arenaShareMetric],
	}
}

// RunAllocSweep measures pooled and unpooled variants at each consumer
// count and returns paired rows (unpooled first, pooled second per C).
func RunAllocSweep(consumers []int, report func(string)) []AllocResult {
	var out []AllocResult
	for _, c := range consumers {
		for _, pooled := range []bool{false, true} {
			cfg := AllocConfig{Consumers: c, Pool: pooled}
			if report != nil {
				report(fmt.Sprintf("alloc: consumers=%d pool=%v", c, pooled))
			}
			out = append(out, RunAllocCell(cfg))
		}
	}
	return out
}

// RenderAllocSweep prints the sweep as a table with the per-C reduction.
func RenderAllocSweep(w io.Writer, title string, rows []AllocResult) error {
	fmt.Fprintln(w, title)
	header := []string{"consumers", "variant", "allocs/op", "bytes/op", "ns/op", "reduction"}
	var table [][]string
	for i := 0; i < len(rows); i += 2 {
		un, po := rows[i], rows[i+1]
		red := AllocReduction(un.AllocsPerOp, po.AllocsPerOp)
		table = append(table,
			[]string{fmt.Sprint(un.Config.Consumers), "unpooled",
				fmt.Sprint(un.AllocsPerOp), fmt.Sprint(un.BytesPerOp), fmt.Sprint(un.NsPerOp), ""},
			[]string{fmt.Sprint(po.Config.Consumers), "pooled",
				fmt.Sprint(po.AllocsPerOp), fmt.Sprint(po.BytesPerOp), fmt.Sprint(po.NsPerOp),
				fmt.Sprintf("%.1f%%", red)})
	}
	return WriteTable(w, header, table)
}

// AllocReduction is the percentage drop from unpooled to pooled allocs/op.
func AllocReduction(unpooled, pooled int64) float64 {
	if unpooled <= 0 {
		return 0
	}
	return 100 * (1 - float64(pooled)/float64(unpooled))
}
