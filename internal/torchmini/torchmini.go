// Package torchmini is a miniature PyTorch-style DataLoader — the second
// DL framework substrate of the paper's evaluation (§V-B). PyTorch loads
// data with worker *processes*: worker w handles batches round-robin
// (batch_idx % W == w), reads and preprocesses the batch's samples, and
// hands the assembled batch to the consumer, which delivers batches in
// order. num_workers=0 loads synchronously in the consumer process.
//
// Two variants are provided:
//
//   - DataLoader: native PyTorch behaviour, reading straight from backend
//     storage. Its throughput scales with the worker count the user picked
//     manually — "the number of workers must be chosen manually by users,
//     while the optimal configuration may vary according to the targeted
//     AI workload" (§V-B).
//   - PrismaLoader: the same DataLoader with worker reads intercepted and
//     forwarded to a PRISMA stage (over UNIX-domain-socket clients in real
//     deployments — internal/ipc; in simulation the serialized IPC+buffer
//     cost is carried by the stage buffer's AccessCost). The stage
//     prefetches each epoch's plan ahead of consumption, which is why
//     PRISMA wins at low worker counts; the serialized buffer access is
//     why it loses slightly at 8-16 workers (§V-B).
//
// Both implement train.Pipeline.
package torchmini

import (
	"fmt"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// Costs models the DataLoader's CPU-side per-item costs.
type Costs struct {
	// Preprocess is the per-image decode/augment cost, paid in the worker
	// (or the consumer when Workers == 0).
	Preprocess time.Duration
	// Collate is the per-batch tensor assembly cost, paid where the batch
	// is assembled.
	Collate time.Duration
}

// Validate reports whether the costs are usable.
func (c Costs) Validate() error {
	if c.Preprocess < 0 || c.Collate < 0 {
		return fmt.Errorf("torchmini: negative cost")
	}
	return nil
}

// Config parameterizes a DataLoader.
type Config struct {
	// Workers is num_workers; 0 loads in the consumer process.
	Workers int
	// GlobalBatch is the batch size delivered per iterator step (batch
	// per GPU × GPUs, as the trainer consumes it).
	GlobalBatch int
	// PrefetchFactor is PyTorch's prefetch_factor: each worker keeps up
	// to this many batches in flight.
	PrefetchFactor int
	Costs          Costs
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("torchmini: negative worker count")
	}
	if c.GlobalBatch < 1 {
		return fmt.Errorf("torchmini: global batch %d < 1", c.GlobalBatch)
	}
	if c.Workers > 0 && c.PrefetchFactor < 1 {
		return fmt.Errorf("torchmini: prefetch factor %d < 1", c.PrefetchFactor)
	}
	return c.Costs.Validate()
}

// readFunc performs one sample read; the two variants differ only here.
type readFunc func(name string) error

// DataLoader is the native PyTorch-style loader.
type DataLoader struct {
	env     conc.Env
	backend storage.Backend
	train   *dataset.Manifest
	val     *dataset.Manifest
	seed    int64
	cfg     Config
	iters   []*loaderIter
}

// NewDataLoader builds a native loader.
func NewDataLoader(env conc.Env, backend storage.Backend, trainSet, valSet *dataset.Manifest, seed int64, cfg Config) (*DataLoader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DataLoader{env: env, backend: backend, train: trainSet, val: valSet, seed: seed, cfg: cfg}, nil
}

// TrainIter implements train.Pipeline.
func (d *DataLoader) TrainIter(epoch int) (train.Iterator, error) {
	names := d.train.EpochFileList(d.seed, epoch)
	it := newLoaderIter(d.env, d.cfg, names, func(name string) error {
		_, err := d.backend.Read(storage.Request{Name: name})
		return err
	})
	d.iters = append(d.iters, it)
	return it, nil
}

// ValIter implements train.Pipeline.
func (d *DataLoader) ValIter(epoch int) (train.Iterator, error) {
	names := d.val.EpochFileList(d.seed+1, epoch)
	it := newLoaderIter(d.env, d.cfg, names, func(name string) error {
		_, err := d.backend.Read(storage.Request{Name: name})
		return err
	})
	d.iters = append(d.iters, it)
	return it, nil
}

// Close implements train.Pipeline, releasing any live worker pools.
func (d *DataLoader) Close() {
	for _, it := range d.iters {
		it.teardown()
	}
	d.iters = nil
}

// PrismaLoader is the DataLoader with reads intercepted by a PRISMA stage.
// The complete integration diff against DataLoader — the paper's 35 LoC
// PyTorch change — is: (1) submit each epoch's shuffled filename list,
// (2) route worker reads through the per-worker PRISMA client instead of
// the filesystem.
type PrismaLoader struct {
	env   conc.Env
	stage *core.Stage
	train *dataset.Manifest
	val   *dataset.Manifest
	seed  int64
	cfg   Config
	iters []*loaderIter
}

// NewPrismaLoader builds the PRISMA-backed loader over an existing stage.
func NewPrismaLoader(env conc.Env, stage *core.Stage, trainSet, valSet *dataset.Manifest, seed int64, cfg Config) (*PrismaLoader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PrismaLoader{env: env, stage: stage, train: trainSet, val: valSet, seed: seed, cfg: cfg}, nil
}

// TrainIter implements train.Pipeline: the epoch plan is shared with the
// data plane before consumption starts, so prefetching begins ahead of the
// epoch ("PRISMA starting prefetching samples before the epoch begins",
// §V-B).
func (p *PrismaLoader) TrainIter(epoch int) (train.Iterator, error) {
	names := p.train.EpochFileList(p.seed, epoch)
	if err := p.stage.SubmitPlan(names); err != nil {
		return nil, err
	}
	it := newLoaderIter(p.env, p.cfg, names, func(name string) error {
		_, _, err := p.stage.Read(core.ReadRequest{Name: name})
		return err
	})
	p.iters = append(p.iters, it)
	return it, nil
}

// ValIter implements train.Pipeline. Validation files are unplanned and
// bypass through the stage to backend storage.
func (p *PrismaLoader) ValIter(epoch int) (train.Iterator, error) {
	names := p.val.EpochFileList(p.seed+1, epoch)
	it := newLoaderIter(p.env, p.cfg, names, func(name string) error {
		_, _, err := p.stage.Read(core.ReadRequest{Name: name})
		return err
	})
	p.iters = append(p.iters, it)
	return it, nil
}

// Stage exposes the underlying stage.
func (p *PrismaLoader) Stage() *core.Stage { return p.stage }

// NewPrismaLoaderIPC builds a PRISMA-backed loader whose workers read over
// real UNIX-domain-socket clients — the literal §IV deployment ("for each
// spawned process, a PRISMA client instance is created"). It requires a
// real-time environment (sockets cannot run under virtual time); the
// simulated experiments model the same path through BufferAccessCost.
// dial is called once per worker (plus once for the consumer when
// Workers == 0); the returned clients are closed by Close.
func NewPrismaLoaderIPC(env conc.Env, dial func() (*ipc.Client, error), planner *ipc.Client, trainSet, valSet *dataset.Manifest, seed int64, cfg Config) (*PrismaIPCLoader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clients := cfg.Workers
	if clients == 0 {
		clients = 1
	}
	l := &PrismaIPCLoader{env: env, planner: planner, train: trainSet, val: valSet, seed: seed, cfg: cfg}
	for i := 0; i < clients; i++ {
		c, err := dial()
		if err != nil {
			l.Close()
			return nil, err
		}
		l.clients = append(l.clients, c)
	}
	return l, nil
}

// PrismaIPCLoader is the real-socket variant of PrismaLoader.
type PrismaIPCLoader struct {
	env     conc.Env
	planner *ipc.Client
	clients []*ipc.Client
	train   *dataset.Manifest
	val     *dataset.Manifest
	seed    int64
	cfg     Config
	iters   []*loaderIter
}

// read builds the per-worker read function: worker w uses its own client.
func (l *PrismaIPCLoader) readVia() readFunc {
	var next int
	var mu sync.Mutex
	return func(name string) error {
		// Round-robin client assignment approximates one client per
		// worker: worker goroutines grab distinct clients because batch
		// handling keeps them out of phase; contention on one client only
		// serializes, never corrupts (Client is mutex-guarded).
		mu.Lock()
		c := l.clients[next%len(l.clients)]
		next++
		mu.Unlock()
		_, err := c.Read(name)
		return err
	}
}

// TrainIter implements train.Pipeline.
func (l *PrismaIPCLoader) TrainIter(epoch int) (train.Iterator, error) {
	names := l.train.EpochFileList(l.seed, epoch)
	if err := l.planner.SubmitPlan(names); err != nil {
		return nil, err
	}
	it := newLoaderIter(l.env, l.cfg, names, l.readVia())
	l.iters = append(l.iters, it)
	return it, nil
}

// ValIter implements train.Pipeline (unplanned: bypass reads).
func (l *PrismaIPCLoader) ValIter(epoch int) (train.Iterator, error) {
	names := l.val.EpochFileList(l.seed+1, epoch)
	it := newLoaderIter(l.env, l.cfg, names, l.readVia())
	l.iters = append(l.iters, it)
	return it, nil
}

// Close tears down worker pools and closes every client.
func (l *PrismaIPCLoader) Close() {
	for _, it := range l.iters {
		it.teardown()
	}
	l.iters = nil
	for _, c := range l.clients {
		_ = c.Close()
	}
	l.clients = nil
}

// Close implements train.Pipeline, releasing any live worker pools; the
// stage itself is owned by the caller.
func (p *PrismaLoader) Close() {
	for _, it := range p.iters {
		it.teardown()
	}
	p.iters = nil
}

// ---------------------------------------------------------------------------
// Iterator machinery

// loaderIter delivers samples batch-by-batch. With Workers == 0 it loads
// synchronously; otherwise worker threads assemble batches round-robin and
// the consumer takes them in order from a bounded reorder buffer.
type loaderIter struct {
	env  conc.Env
	cfg  Config
	read readFunc

	// Synchronous mode state.
	names []string
	i     int

	// Worker mode state.
	batches   [][]string
	nextBatch int
	remaining int
	buf       *core.Buffer
	closed    bool
}

func newLoaderIter(env conc.Env, cfg Config, names []string, read readFunc) *loaderIter {
	it := &loaderIter{env: env, cfg: cfg, read: read, names: names}
	if cfg.Workers == 0 {
		return it
	}
	// Partition into batches.
	for start := 0; start < len(names); start += cfg.GlobalBatch {
		end := start + cfg.GlobalBatch
		if end > len(names) {
			end = len(names)
		}
		it.batches = append(it.batches, names[start:end])
	}
	capacity := cfg.Workers * cfg.PrefetchFactor
	if capacity < 1 {
		capacity = 1
	}
	it.buf = core.NewBuffer(env, capacity, 0)
	for w := 0; w < cfg.Workers; w++ {
		w := w
		env.Go(fmt.Sprintf("torch-worker-%d", w), func() { it.workerLoop(w) })
	}
	return it
}

// workerLoop assembles this worker's round-robin share of batches.
func (it *loaderIter) workerLoop(w int) {
	for idx := w; idx < len(it.batches); idx += it.cfg.Workers {
		var failure error
		for _, name := range it.batches[idx] {
			if err := it.read(name); err != nil {
				failure = err
				break
			}
			if it.cfg.Costs.Preprocess > 0 {
				it.env.Sleep(it.cfg.Costs.Preprocess)
			}
		}
		if failure == nil && it.cfg.Costs.Collate > 0 {
			it.env.Sleep(it.cfg.Costs.Collate)
		}
		// The reorder buffer parks each batch at its batch index.
		if _, err := it.buf.Put(core.Item{PlanPos: core.PlanPos{Index: idx}, Err: failure}); err != nil {
			return // iterator torn down
		}
	}
}

// Next implements train.Iterator.
func (it *loaderIter) Next() (bool, error) {
	if it.cfg.Workers == 0 {
		return it.nextSync()
	}
	if it.remaining > 0 {
		it.remaining--
		return true, nil
	}
	if it.nextBatch >= len(it.batches) {
		return false, nil
	}
	item, err := it.buf.Take(core.PlanPos{Index: it.nextBatch}, core.TakeOptions{})
	if err != nil {
		return false, err
	}
	if item.Err != nil {
		it.teardown() // release workers blocked on the reorder buffer
		return false, item.Err
	}
	size := len(it.batches[it.nextBatch])
	it.nextBatch++
	it.remaining = size - 1
	return true, nil
}

// teardown closes the reorder buffer so workers stop producing.
func (it *loaderIter) teardown() {
	if it.buf != nil && !it.closed {
		it.closed = true
		it.buf.Close()
	}
}

// nextSync is the Workers == 0 path: load in the consumer.
func (it *loaderIter) nextSync() (bool, error) {
	if it.i >= len(it.names) {
		return false, nil
	}
	name := it.names[it.i]
	if err := it.read(name); err != nil {
		return false, err
	}
	if it.cfg.Costs.Preprocess > 0 {
		it.env.Sleep(it.cfg.Costs.Preprocess)
	}
	it.i++
	// Collate at each batch boundary.
	if it.cfg.Costs.Collate > 0 && it.i%it.cfg.GlobalBatch == 0 {
		it.env.Sleep(it.cfg.Costs.Collate)
	}
	return true, nil
}
