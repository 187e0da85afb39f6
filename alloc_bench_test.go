package prisma

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/experiments"
)

// BenchmarkHotPathAllocs measures allocations per delivered sample on the
// contended read path (4 IPC consumers over a UNIX socket, full pipeline:
// storage read → prefetch buffer → evict-on-read → IPC frame → client
// decode), with and without the buffer pool. `prisma-bench alloc` runs the
// same cells from a plain binary; results_alloc.txt records the sweep.
func BenchmarkHotPathAllocs(b *testing.B) {
	b.Run("unpooled", experiments.AllocBenchmark(experiments.AllocConfig{Pool: false}))
	b.Run("pooled", experiments.AllocBenchmark(experiments.AllocConfig{Pool: true}))
	b.Run("pooled-compressed", experiments.AllocBenchmark(experiments.AllocConfig{Pool: true, Compressed: true}))
	b.Run("pooled-batched", experiments.AllocBenchmark(experiments.AllocConfig{Pool: true, Batch: 4}))
}

// allocBudget is the committed allocation budget (alloc_budget.txt) the CI
// gate enforces. See CONTRIBUTING.md for how to re-baseline it.
type allocBudget struct {
	PooledAllocsPerOp     int64   // hard ceiling for the pooled variant
	MinReductionPct       float64 // required pooled-vs-unpooled drop
	CachedAllocsPerOp     int64   // hard ceiling for pooled + shared cache
	CompressedAllocsPerOp int64   // hard ceiling for pooled + compressed shards
	BatchedAllocsPerOp    int64   // hard ceiling for pooled + read coalescing
	ResilientAllocsPerOp  int64   // hard ceiling for pooled + resilient layer
	IPCClientAllocsPerOp  int64   // hard ceiling for the socket hop alone, read-ahead engaged
}

func readAllocBudget(t *testing.T, path string) allocBudget {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	defer f.Close()
	var b allocBudget
	seen := map[string]bool{}
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
		switch fields[0] {
		case "pooled_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.PooledAllocsPerOp = v
		case "min_reduction_percent":
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.MinReductionPct = v
		case "cached_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.CachedAllocsPerOp = v
		case "compressed_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.CompressedAllocsPerOp = v
		case "batched_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.BatchedAllocsPerOp = v
		case "resilient_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.ResilientAllocsPerOp = v
		case "ipc_client_allocs_per_op":
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("alloc budget: %q: %v", line, err)
			}
			b.IPCClientAllocsPerOp = v
		default:
			t.Fatalf("alloc budget: unknown key %q", fields[0])
		}
		seen[fields[0]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pooled_allocs_per_op", "min_reduction_percent", "cached_allocs_per_op", "compressed_allocs_per_op", "batched_allocs_per_op", "resilient_allocs_per_op", "ipc_client_allocs_per_op"} {
		if !seen[key] {
			t.Fatalf("alloc budget: missing %s", key)
		}
	}
	return b
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

	unpooled := experiments.RunAllocCell(experiments.AllocConfig{Pool: false})
	pooled := experiments.RunAllocCell(experiments.AllocConfig{Pool: true})
	reduction := experiments.AllocReduction(unpooled.AllocsPerOp, pooled.AllocsPerOp)
	t.Logf("unpooled: %d allocs/op (%d ops); pooled: %d allocs/op (%d ops); reduction %.1f%%",
		unpooled.AllocsPerOp, unpooled.Ops, pooled.AllocsPerOp, pooled.Ops, reduction)

	if pooled.AllocsPerOp > budget.PooledAllocsPerOp {
		t.Errorf("pooled hot path allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			pooled.AllocsPerOp, budget.PooledAllocsPerOp)
	}
	if reduction < budget.MinReductionPct {
		t.Errorf("pooling reduces allocs/op by %.1f%%, budget requires >= %.1f%%",
			reduction, budget.MinReductionPct)
	}

	// Cache-on cell: the shared cache tier (sized to hold the whole
	// dataset, so steady state is all hits) must stay within its own
	// per-sample budget on top of the pool.
	cached := experiments.RunAllocCell(experiments.AllocConfig{Pool: true, SharedCache: 8 << 20})
	t.Logf("pooled+cache: %d allocs/op (%d ops)", cached.AllocsPerOp, cached.Ops)
	if cached.AllocsPerOp > budget.CachedAllocsPerOp {
		t.Errorf("pooled hot path with the shared cache allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			cached.AllocsPerOp, budget.CachedAllocsPerOp)
	}
	// Compressed cell: LZ-packed shards decoded in place into pooled
	// buffers must stay within the same per-sample budget — transparent
	// compression is not allowed to cost the hot path its zero-alloc
	// property.
	compressed := experiments.RunAllocCell(experiments.AllocConfig{Pool: true, Compressed: true})
	t.Logf("pooled+compressed: %d allocs/op (%d ops)", compressed.AllocsPerOp, compressed.Ops)
	if compressed.AllocsPerOp > budget.CompressedAllocsPerOp {
		t.Errorf("pooled hot path over compressed shards allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			compressed.AllocsPerOp, budget.CompressedAllocsPerOp)
	}
	// Batched cell: FIFO runs coalesced into vectored reads and split into
	// views aliasing the shared region buffer must keep the hot path at
	// zero allocations — batching exists to remove per-request costs, not
	// to trade them for per-sample ones.
	batched := experiments.RunAllocCell(experiments.AllocConfig{Pool: true, Batch: 4})
	t.Logf("pooled+batched: %d allocs/op (%d ops)", batched.AllocsPerOp, batched.Ops)
	if batched.AllocsPerOp > budget.BatchedAllocsPerOp {
		t.Errorf("pooled hot path with read coalescing allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			batched.AllocsPerOp, budget.BatchedAllocsPerOp)
	}
	// Resilient cell: the retry/breaker layer Open interposes by default
	// must ride the pooled hot path for free (it once cost one escaping
	// closure per read, invisible while the gate's chain had no such layer).
	resilient := experiments.RunAllocCell(experiments.AllocConfig{Pool: true, Resilient: true})
	t.Logf("pooled+resilient: %d allocs/op (%d ops)", resilient.AllocsPerOp, resilient.Ops)
	if resilient.AllocsPerOp > budget.ResilientAllocsPerOp {
		t.Errorf("pooled hot path through the resilient layer allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			resilient.AllocsPerOp, budget.ResilientAllocsPerOp)
	}
	// IPC client cell: one consumer striding small samples over the loopback
	// socket, so the hop itself dominates and read-ahead runs at its full
	// window — most reads are stash hits, the rest multi-sample exchanges.
	// The whole process is counted, so a zero here is a zero for the client
	// decode, the stash and the server's push path together.
	ipcClient := experiments.RunAllocCell(experiments.AllocConfig{Pool: true, Consumers: 1, Files: 512, FileSize: 4 << 10, BufferCap: 64})
	t.Logf("pooled ipc client: %d allocs/op (%d ops, %.2f stash hits/op)", ipcClient.AllocsPerOp, ipcClient.Ops, ipcClient.StashHitsPerOp)
	if ipcClient.AllocsPerOp > budget.IPCClientAllocsPerOp {
		t.Errorf("pooled ipc.Client.Read allocates %d/op, budget is %d/op (see CONTRIBUTING.md to re-baseline)",
			ipcClient.AllocsPerOp, budget.IPCClientAllocsPerOp)
	}
	if ipcClient.StashHitsPerOp < 0.5 {
		t.Errorf("only %.2f of the ipc client cell's reads were stash hits: the cell is not exercising read-ahead", ipcClient.StashHitsPerOp)
	}
	if unpooled.AllocsPerOp == 0 {
		t.Error("unpooled variant reported zero allocs/op: the benchmark is not measuring the hot path")
	}
}
