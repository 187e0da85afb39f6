// Plan-aware read coalescing benchmark: the measurement behind the
// vectored-read path. Two cells run the identical packed dataset through
// the full prefetch pipeline — one per-sample, one with the coalescer at
// batch budget K — over an operation-counting shard store, so the rows
// expose exactly how many backend requests (and bytes) each variant
// issues for the same delivered sample stream. The coalescer's economy
// claim is deterministic: with the epoch plan queued before producers
// start, every FIFO run pops K adjacent samples of one shard, so the
// batched cell issues exactly ceil(files/K) vectored reads where the
// per-sample cell issues files, moving the same bytes.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// countingStore wraps the in-memory shard store and counts every backend
// request — whole-file, ranged, or vectored — as one operation, plus the
// bytes it moved.
type countingStore struct {
	inner storage.Backend
	ops   atomic.Int64
	bytes atomic.Int64
}

func (s *countingStore) Read(req storage.Request) (storage.Response, error) {
	resp, err := s.inner.Read(req)
	s.ops.Add(1)
	s.bytes.Add(resp.PayloadSize(req))
	return resp, err
}

func (s *countingStore) Size(name string) (int64, error) { return s.inner.Size(name) }

// BatchRow is one cell of the coalescing comparison.
type BatchRow struct {
	Setup          string
	Samples        int   // samples delivered
	BackendOps     int64 // requests the shard store served
	BackendBytes   int64 // bytes the shard store moved
	BatchReads     int64 // vectored reads the coalescer issued
	BatchedSamples int64 // samples delivered through vectored reads
	Fallbacks      int64 // batches that fell back to per-sample reads
}

// BatchCompareConfig parameterizes RunBatchCompare.
type BatchCompareConfig struct {
	// Files and FileSize define the packed dataset (defaults 64 records of
	// 64 KiB in one shard).
	Files    int
	FileSize int
	// BatchSamples is the coalescer's run budget K (default 4). Files
	// should be a multiple of K for the exact-op-count property.
	BatchSamples int
	// Producers is the prefetching thread count (default 4).
	Producers int
}

// WithDefaults fills zero fields with the canonical cell's parameters.
func (c BatchCompareConfig) WithDefaults() BatchCompareConfig {
	if c.Files == 0 {
		c.Files = 64
	}
	if c.FileSize == 0 {
		c.FileSize = 64 << 10
	}
	if c.BatchSamples == 0 {
		c.BatchSamples = 4
	}
	if c.Producers == 0 {
		c.Producers = 4
	}
	return c
}

// runBatchCell runs one variant (batch == 0 disables coalescing) over a
// fresh packed dataset and verifies every delivered payload bit-for-bit
// against the packed content before counting it.
func runBatchCell(setup string, cfg BatchCompareConfig, batch int) (BatchRow, error) {
	row := BatchRow{Setup: setup}
	env := conc.NewReal()
	names := make([]string, cfg.Files)
	contents := make([][]byte, cfg.Files)
	for i := range names {
		names[i] = fmt.Sprintf("batch%04d.bin", i)
		contents[i] = CompressibleSample(i, cfg.FileSize, 1)
	}
	mem := storage.NewMemBackend()
	ix, err := recordio.PackMem(mem, "batch/shard-00000.rec", names, contents, false)
	if err != nil {
		return row, err
	}
	store := &countingStore{inner: mem}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	ch := &chain.Chain{Env: env, Pool: pool, Backend: store}
	if err := ch.Fold(chain.Config{Index: ix}); err != nil {
		return row, err
	}

	pf, err := core.NewPrefetcher(env, ch.Backend, core.PrefetcherConfig{
		InitialProducers:      cfg.Producers,
		MaxProducers:          cfg.Producers,
		InitialBufferCapacity: cfg.Files,
		MaxBufferCapacity:     cfg.Files,
		BatchSamples:          batch,
		Coalescer:             ch.Coalescer,
	})
	if err != nil {
		return row, err
	}
	stage := core.NewStage(env, ch.Backend, pf)
	// Queue the whole epoch before the first producer starts: every run
	// the coalescer pops is then a full, aligned K-sample window, which
	// makes the backend op count exact rather than racy.
	if err := stage.SubmitPlan(names); err != nil {
		stage.Close()
		return row, err
	}
	pf.Start()
	defer stage.Close()

	for i, name := range names {
		d, _, err := stage.Read(core.ReadRequest{Name: name})
		if err != nil {
			return row, fmt.Errorf("read %s: %w", name, err)
		}
		if !bytes.Equal(d.Bytes, contents[i]) {
			d.Release()
			return row, fmt.Errorf("read %s: payload mismatch (%d bytes, want %d)", name, d.Size, len(contents[i]))
		}
		d.Release()
		row.Samples++
	}
	row.BackendOps = store.ops.Load()
	row.BackendBytes = store.bytes.Load()
	row.BatchReads = pf.BatchReads()
	row.BatchedSamples = pf.BatchedSamples()
	row.Fallbacks = pf.BatchFallbacks()
	if outstanding := pool.Outstanding(); outstanding != 0 {
		return row, fmt.Errorf("%s: %d pooled refs leaked", setup, outstanding)
	}
	return row, nil
}

// RunBatchCompare runs the per-sample baseline and the coalesced variant
// over identical packed datasets and returns both rows (per-sample first).
func RunBatchCompare(cfg BatchCompareConfig, report func(string)) (BatchRow, BatchRow, error) {
	cfg = cfg.WithDefaults()
	per, err := runBatchCell("per-sample", cfg, 0)
	if err != nil {
		return per, BatchRow{}, err
	}
	if report != nil {
		report(fmt.Sprintf("batch %-10s ops=%-4d bytes=%d", per.Setup, per.BackendOps, per.BackendBytes))
	}
	batched, err := runBatchCell(fmt.Sprintf("batched-k%d", cfg.BatchSamples), cfg, cfg.BatchSamples)
	if err != nil {
		return per, batched, err
	}
	if report != nil {
		report(fmt.Sprintf("batch %-10s ops=%-4d bytes=%d vectored=%d samples=%d fallbacks=%d",
			batched.Setup, batched.BackendOps, batched.BackendBytes,
			batched.BatchReads, batched.BatchedSamples, batched.Fallbacks))
	}
	return per, batched, nil
}

// RenderBatch writes batch rows as the usual text table.
func RenderBatch(w io.Writer, title string, rows []BatchRow) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Setup,
			fmt.Sprint(r.Samples),
			fmt.Sprint(r.BackendOps),
			fmt.Sprint(r.BackendBytes),
			fmt.Sprint(r.BatchReads),
			fmt.Sprint(r.BatchedSamples),
			fmt.Sprint(r.Fallbacks),
		})
	}
	return WriteTable(w, []string{"setup", "samples", "backend ops", "backend bytes", "vectored reads", "batched samples", "fallbacks"}, table)
}
