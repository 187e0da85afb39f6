package prisma

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// countingEnv is the real environment with every acquisition of a mutex it
// made counted, the re-acquisition at the end of a condition wait included,
// and every reading of its clock.
type countingEnv struct {
	*conc.Real
	locks, clocks atomic.Int64
}

func (e *countingEnv) Now() time.Duration {
	e.clocks.Add(1)
	return e.Real.Now()
}

type countedMutex struct {
	sync.Mutex
	n *atomic.Int64
}

func (m *countedMutex) Lock() {
	m.n.Add(1)
	m.Mutex.Lock()
}

func (e *countingEnv) NewMutex() conc.Mutex { return &countedMutex{n: &e.locks} }

func (e *countingEnv) NewCond(m conc.Mutex) conc.Cond { return sync.NewCond(&m.(*countedMutex).Mutex) }

// maxLocksPerPlannedRead is the hand-off's lock budget (DESIGN.md §12): the
// plan pop, the buffer put, the claim, the buffer take and the delivery.
const maxLocksPerPlannedRead = 5

// maxClocksPerPlannedRead is its clock budget: the producer's two readings
// around the backend read, and two each in the buffer put and the take.
const maxClocksPerPlannedRead = 6

// TestPlannedReadLockBudget counts the mutex acquisitions and clock readings
// one planned read costs at steady state over the stage Open builds with default options —
// the directory leaf with its manifest, the resilient row, a pool and a
// tracer at sampling 0 — with one consumer reading a submitted epoch in
// plan order. Counters, histograms, the cancel filter, the producers'
// retire check and a healthy breaker take no lock; what is left is the
// budgets above. The count runs from a full buffer with the producer parked
// on it to the same state, so the window holds whole reads only.
func TestPlannedReadLockBudget(t *testing.T) {
	const files, warm, counted = 4096, 1024, 2048
	dir := makeDataset(t, files)
	manifest, err := dataset.FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := &countingEnv{Real: conc.NewReal()}
	opts := Options{Dir: dir}.withDefaults()
	pool := mempool.New(mempool.Config{})
	tracer := obs.NewTracer(env, obs.TracerOptions{})
	leaf, err := storage.NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	leaf.SetBufferPool(pool)
	leaf.SetManifest(manifest)
	ch := foldOptions(t, &chain.Chain{Env: env, Pool: pool, Tracer: tracer, Backend: leaf}, opts)
	defer ch.Close()
	pf, err := core.NewPrefetcher(env, ch.Backend, manifest, core.PrefetcherConfig{
		InitialProducers:      opts.InitialProducers,
		MaxProducers:          opts.MaxProducers,
		InitialBufferCapacity: opts.InitialBuffer,
		MaxBufferCapacity:     opts.MaxBuffer,
		BufferShards:          min(runtime.GOMAXPROCS(0), 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	stage := core.NewStage(env, ch.Backend, pf)
	defer stage.Close()
	stage.SetTracer(tracer)
	stage.SetBufferPool(pool)
	pf.Start()

	names := manifest.EpochFileList(1, 0)
	if _, err := stage.SubmitEpoch(names); err != nil {
		t.Fatal(err)
	}
	read := func(name string) {
		d, at, err := stage.Read(core.ReadRequest{Name: name})
		if err != nil || at.Epoch == 0 {
			t.Fatalf("planned read of %s: %v (position %+v)", name, err, at)
		}
		d.Release()
	}
	// settle lets the producer fill the buffer and park on it.
	settle := func() { time.Sleep(100 * time.Millisecond) }
	for _, n := range names[:warm] {
		read(n)
	}
	settle()
	before, clocks, produced := env.locks.Load(), env.clocks.Load(), pf.PrefetchedFiles()
	for _, n := range names[warm : warm+counted] {
		read(n)
	}
	settle()
	// A planned read is one produce and one consume. Where the buffer's
	// fill at the two ends differs (a shard count that does not divide N),
	// the producer made a few reads more or fewer than the consumer; charge
	// the window to the larger count.
	reads := max(counted, pf.PrefetchedFiles()-produced)
	per := float64(env.locks.Load()-before) / float64(reads)
	perClock := float64(env.clocks.Load()-clocks) / float64(reads)
	t.Logf("%.3f mutex acquisitions and %.3f clock readings per planned read", per, perClock)
	if per > maxLocksPerPlannedRead {
		t.Errorf("%.2f mutex acquisitions per planned read, budget %d", per, maxLocksPerPlannedRead)
	}
	if perClock > maxClocksPerPlannedRead {
		t.Errorf("%.2f clock readings per planned read, budget %d", perClock, maxClocksPerPlannedRead)
	}
}
