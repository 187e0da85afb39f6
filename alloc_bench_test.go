package prisma

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/experiments"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
)

// BenchmarkHotPathAllocs measures allocations per delivered sample on the
// contended read path (4 IPC consumers over a UNIX socket, full pipeline:
// storage read → prefetch buffer → evict-on-read → IPC frame → client
// decode), with and without the buffer pool. `prisma-bench alloc` runs the
// same cells from a plain binary; results_alloc.txt records the sweep.
func BenchmarkHotPathAllocs(b *testing.B) {
	b.Run("unpooled", experiments.AllocBenchmark(experiments.AllocConfig{Pool: false}))
	b.Run("pooled", experiments.AllocBenchmark(experiments.AllocConfig{Pool: true}))
}

// allocBudget is the committed allocation budget (alloc_budget.txt) the CI
// gate enforces, by row name. See CONTRIBUTING.md for how to re-baseline it.
type allocBudget map[string]float64

// allocBudgetRows are the rows the gate enforces; the file must have
// exactly these.
var allocBudgetRows = []string{
	"pooled_allocs_per_op",        // hard ceiling for the pooled variant
	"min_reduction_percent",       // required pooled-vs-unpooled drop
	"cached_allocs_per_op",        // pooled + the hierarchy as the shared cache builds it
	"resilient_allocs_per_op",     // pooled + resilient layer
	"ipc_client_allocs_per_op",    // the socket hop alone, read-ahead and the arena engaged, on a server with tenants
	"ipc_inline_allocs_per_op",    // the same hop on a connection that never asked for the arena
	"ipc_arena_allocs_per_op",     // the same hop on a server without tenants
	"dir_allocs_per_op",           // the directory leaf alone, over real files
	"dir_pinned_allocs_per_op",    // the same leaf given its manifest, reading pinned files
	"tier_declined_allocs_per_op", // a miss a full fast tier declines
	"plan_allocs_per_entry",       // an epoch plan submitted over the socket, per entry
}

func readAllocBudget(t *testing.T, path string) allocBudget {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	defer f.Close()
	known := map[string]bool{}
	for _, row := range allocBudgetRows {
		known[row] = true
	}
	b := allocBudget{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("alloc budget: malformed line %q", line)
		}
		if !known[fields[0]] {
			t.Fatalf("alloc budget: unknown key %q", fields[0])
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("alloc budget: %q: %v", line, err)
		}
		b[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, row := range allocBudgetRows {
		if _, ok := b[row]; !ok {
			t.Fatalf("alloc budget: missing %s", row)
		}
	}
	return b
}

// dirReadAllocs measures allocations per pooled whole-file DirBackend read
// and release over a real temporary directory of 4 KiB files. Every other
// gate cell sits on MemBackend, which is how the directory leaf once spent
// five heap objects per file without the gate noticing. pinned gives the
// leaf its manifest, as Open does, and measures from the second pass on:
// the reads of descriptors the first pass pinned.
func dirReadAllocs(t *testing.T, pinned bool) float64 {
	t.Helper()
	dir := t.TempDir()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d.bin", i)
		if err := os.WriteFile(filepath.Join(dir, names[i]), make([]byte, 4<<10), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := storagetest.OpenDir(t, dir)
	b.SetBufferPool(mempool.New(mempool.Config{}))
	read := func(name string) {
		resp, err := b.Read(storage.Request{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		resp.Data.Release()
	}
	if pinned {
		m, err := dataset.FromDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.SetManifest(m)
		for _, name := range names {
			read(name)
		}
	}
	i := 0
	return testing.AllocsPerRun(2000, func() {
		read(names[i%len(names)])
		i++
	})
}

// tierDeclinedAllocs measures allocations per whole-file miss that a full,
// compressing fast tier declines (pooled MemBackend below it; no plan is
// sized, so it encodes): 32 files read once over a tier a quarter their
// size, so the first few fill it and every later read ties with the
// residents. A declined miss must cost what the slow read costs and nothing
// else — the decision precedes the encode, the resident copy and the entry,
// and the single-flight slot of a read nobody joins is a nil map value.
func tierDeclinedAllocs(t *testing.T) float64 {
	t.Helper()
	const files, fileSize = 32, 16 << 10
	mem := storage.NewMemBackend()
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d.bin", i)
		mem.Add(names[i], experiments.CompressibleSample(i, fileSize, 0.5))
	}
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)
	ch := foldOptions(t, &chain.Chain{Env: conc.NewReal(), Pool: pool, Backend: mem}, Options{
		Tiering:           TieringOptions{Enable: true, CapacityBytes: files * fileSize / 4, Compress: true},
		DisableResilience: true,
	})
	defer ch.Close()
	read := func(name string) {
		resp, err := ch.Backend.Read(storage.Request{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		resp.Data.Release()
	}
	// The first pass admits into free space until the tier is full and
	// declines the rest: a read that promoted nothing left its name cold.
	var cold []string
	for _, n := range names {
		promoted := tierStats(ch).Promotions
		read(n)
		if tierStats(ch).Promotions == promoted {
			cold = append(cold, n)
		}
	}
	// Every name has now been read once: a second pass over the
	// non-residents offers one earlier read against the residents' one.
	before := tierStats(ch)
	i := 0
	allocs := testing.AllocsPerRun(len(cold)-1, func() {
		read(cold[i])
		i++
	})
	st := tierStats(ch)
	if got := st.Declined - before.Declined; got != int64(len(cold)) || st.Promotions != before.Promotions {
		t.Fatalf("tier cell did not measure declined misses: %d of %d declined, stats %+v", got, len(cold), st)
	}
	return allocs
}

// TestAllocRegressionGate is the CI allocation gate: it benchmarks the
// pooled and unpooled hot paths and fails if the pooled variant exceeds
// the committed budget (alloc_budget.txt) or the reduction falls below
// the required floor. Skipped in -short runs (it benchmarks for several
// seconds) and under -race (instrumentation allocates).
func TestAllocRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate benchmarks for several seconds; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation adds allocations the budget does not model")
	}
	budget := readAllocBudget(t, "alloc_budget.txt")

	// over fails the gate when a cell allocates more than its row allows.
	over := func(what, row string, allocs float64) {
		t.Helper()
		if allocs > budget[row] {
			t.Errorf("%s allocates %v/op, budget %s is %v/op (see CONTRIBUTING.md to re-baseline)", what, allocs, row, budget[row])
		}
	}
	// cell measures one configuration. testing.Benchmark reports a body that
	// failed as zero ops and zero allocations, so a cell that measured
	// nothing fails the gate instead of passing it.
	cell := func(what string, cfg experiments.AllocConfig) experiments.AllocResult {
		t.Helper()
		r := experiments.RunAllocCell(cfg)
		t.Logf("%s: %d allocs/op (%d ops, %.2f stash hits/op)", what, r.AllocsPerOp, r.Ops, r.StashHitsPerOp)
		if r.Ops == 0 {
			t.Errorf("%s: the cell failed, so nothing was measured", what)
		}
		return r
	}

	unpooled := cell("unpooled", experiments.AllocConfig{Pool: false})
	pooled := cell("pooled", experiments.AllocConfig{Pool: true})
	reduction := experiments.AllocReduction(unpooled.AllocsPerOp, pooled.AllocsPerOp)
	t.Logf("reduction %.1f%%", reduction)
	over("pooled hot path", "pooled_allocs_per_op", float64(pooled.AllocsPerOp))
	if reduction < budget["min_reduction_percent"] {
		t.Errorf("pooling reduces allocs/op by %.1f%%, budget requires >= %.1f%%",
			reduction, budget["min_reduction_percent"])
	}

	// Cache-on cell: the memory hierarchy as the shared cache alone builds
	// it (sized to hold the whole dataset, so steady state is all hits) must
	// stay within its own per-sample budget on top of the pool.
	cached := cell("pooled+cache", experiments.AllocConfig{Pool: true, SharedCache: 8 << 20})
	over("pooled hot path with the shared cache", "cached_allocs_per_op", float64(cached.AllocsPerOp))
	// Resilient cell: the retry/breaker layer Open interposes by default
	// must ride the pooled hot path for free (it once cost one escaping
	// closure per read, invisible while the gate's chain had no such layer).
	resilient := cell("pooled+resilient", experiments.AllocConfig{Pool: true, Resilient: true})
	over("pooled hot path through the resilient layer", "resilient_allocs_per_op", float64(resilient.AllocsPerOp))
	// IPC client cell: one consumer striding small samples over the loopback
	// socket, so the hop itself dominates and read-ahead runs at its full
	// window — most reads are stash hits, the rest multi-sample exchanges.
	// The whole process is counted, so a zero here is a zero for the client
	// decode, the stash and the server's push path together.
	// The cell's server has tenants, and its pool is carved from the
	// shared arena it grants (DESIGN.md §29), so payloads are read where
	// the producer put them and lent to the connection until its next
	// frame; where this build has an arena the cell fails unless it
	// engaged. The inline cell is the same hop on connections that never
	// asked for the arena, and the arena cell the same hop on a server
	// without tenants.
	ipcCell := experiments.AllocConfig{Pool: true, Consumers: 1, Files: 512, FileSize: 4 << 10, BufferCap: 64}
	ipcClient := cell("pooled ipc client", ipcCell)
	over("pooled ipc.Client.Read", "ipc_client_allocs_per_op", float64(ipcClient.AllocsPerOp))
	ipcCell.Inline = true
	ipcInline := cell("pooled ipc client, inline", ipcCell)
	over("pooled ipc.Client.Read without the arena", "ipc_inline_allocs_per_op", float64(ipcInline.AllocsPerOp))
	ipcCell.Inline, ipcCell.NoTenants = false, true
	ipcArena := cell("pooled ipc client, no tenants", ipcCell)
	over("pooled ipc.Client.Read from a server without tenants", "ipc_arena_allocs_per_op", float64(ipcArena.AllocsPerOp))
	for _, r := range []experiments.AllocResult{ipcClient, ipcInline, ipcArena} {
		if r.StashHitsPerOp < 0.5 {
			t.Errorf("only %.2f of the ipc client cell's reads were stash hits: the cell is not exercising read-ahead", r.StashHitsPerOp)
		}
	}
	for _, r := range []experiments.AllocResult{ipcClient, ipcArena} {
		if ipc.ArenaSupported && r.ArenaShare < 0.99 {
			t.Errorf("only %.2f of an ipc client cell's payloads were read in the arena: the arena did not engage", r.ArenaShare)
		}
	}
	if ipcInline.ArenaShare != 0 {
		t.Errorf("%.2f of the inline cell's payloads were read in the arena", ipcInline.ArenaShare)
	}
	// Directory leaf cell: the one cell over real files. The row is the
	// raw body's; package os, which every other platform reads through,
	// allocates per open and is only measured.
	dirAllocs, pinnedAllocs := dirReadAllocs(t, false), dirReadAllocs(t, true)
	t.Logf("pooled directory read: %v allocs/op, of a pinned file %v (raw body: %v)", dirAllocs, pinnedAllocs, storage.RawDirLeaf)
	if storage.RawDirLeaf {
		over("pooled DirBackend.Read", "dir_allocs_per_op", dirAllocs)
		over("pooled DirBackend.Read of a pinned file", "dir_pinned_allocs_per_op", pinnedAllocs)
	}
	// Declined-miss cell: a read the full fast tier turns away.
	declined := tierDeclinedAllocs(t)
	t.Logf("declined tier miss: %v allocs/op", declined)
	over("a miss the full fast tier declines", "tier_declined_allocs_per_op", declined)
	// Plan cell: what an epoch plan costs per entry over the socket.
	perEntry := planAllocsPerEntry(t)
	t.Logf("socket plan submission: %.4f allocs/entry", perEntry)
	over("an epoch plan submitted over the socket", "plan_allocs_per_entry", perEntry)
	if unpooled.AllocsPerOp == 0 {
		t.Error("unpooled variant reported zero allocs/op: the benchmark is not measuring the hot path")
	}
}

// planAllocsPerEntry measures the allocations an OpPlan costs per entry, as
// the difference between submitting (and cancelling) an 8 192- and a
// 4 096-entry plan from a client over a loopback socket to a stage that
// resolves names through its manifest, as Open builds it. What a plan costs
// whatever its length — frame, reply, epoch record — cancels out; what is
// left is per name. The prefetcher is never started, so no producer read
// joins the process-wide count.
func planAllocsPerEntry(t *testing.T) float64 {
	t.Helper()
	const big = 8192
	samples := make([]dataset.Sample, big)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("train/%07d.jpg", i), Size: 4 << 10}
	}
	manifest := dataset.MustNew(samples)
	env := conc.NewReal()
	stage, err := core.NewStage(env, storage.NewMemBackend(), manifest, core.DefaultStageConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer stage.Close()
	sock := filepath.Join(t.TempDir(), "plan.sock")
	srv, err := ipc.Serve(sock, stage, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := ipc.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := manifest.EpochFileList(1, 0)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := c.SubmitEpoch(plan[:n])
			if err == nil {
				_, err = c.CancelEpoch(res.Epoch)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs(big) - allocs(big/2)) / (big / 2)
}
