// Package tfmini is a miniature TensorFlow-style input pipeline — the DL
// framework substrate for the paper's §V-A evaluation. It provides the
// three setups the paper compares:
//
//   - Baseline: "a non-optimized deployment with single-threaded disk
//     operations without data prefetching" — the consumer thread reads each
//     sample synchronously from backend storage.
//   - Optimized: "disk I/O parallelism and prefetching, managed by
//     TensorFlow's auto-tuning mechanism" — an intrinsic reader pool
//     (pinned at the framework's thread ceiling, 30 on the evaluation node)
//     fills a sample buffer whose capacity doubles whenever the consumer
//     finds it empty, mirroring prefetch_autotuner.cc. This is the
//     framework-intrinsic optimization the paper argues should be
//     decoupled.
//   - Prisma: the Baseline pipeline with its read call swapped for
//     Stage.Read plus a per-epoch plan submission — the 10-line TensorFlow
//     integration of §IV.
//
// All three implement train.Pipeline.
package tfmini

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// Costs models the host-side per-sample costs of the pipeline.
type Costs struct {
	// Preprocess is the CPU decode/augment cost per image. The baseline
	// pays it in the consumer thread; the optimized pipeline pays it in
	// its reader threads (tf.data map parallelism).
	Preprocess time.Duration
	// Consume is the per-sample cost paid in the consumer thread
	// regardless of setup (tensor handoff, iterator overhead).
	Consume time.Duration
}

// Validate reports whether the costs are usable.
func (c Costs) Validate() error {
	if c.Preprocess < 0 || c.Consume < 0 {
		return fmt.Errorf("tfmini: negative cost")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Baseline

// BaselinePipeline reads every sample synchronously from the backend in the
// consumer thread.
type BaselinePipeline struct {
	env     conc.Env
	backend *storage.ReaderCount // counted for Fig. 3 (always 0/1)
	train   *dataset.Manifest
	val     *dataset.Manifest
	seed    int64
	costs   Costs
}

// NewBaseline builds the non-optimized setup.
func NewBaseline(env conc.Env, backend storage.Backend, trainSet, valSet *dataset.Manifest, seed int64, costs Costs) (*BaselinePipeline, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	return &BaselinePipeline{
		env: env, backend: storage.NewReaderCount(env, backend), train: trainSet, val: valSet, seed: seed, costs: costs,
	}, nil
}

// TrainIter implements train.Pipeline.
func (p *BaselinePipeline) TrainIter(epoch int) (train.Iterator, error) {
	return &serialIter{
		env: p.env, backend: p.backend, costs: p.costs,
		names: p.train.EpochFileList(p.seed, epoch),
	}, nil
}

// ValIter implements train.Pipeline.
func (p *BaselinePipeline) ValIter(epoch int) (train.Iterator, error) {
	return &serialIter{
		env: p.env, backend: p.backend, costs: p.costs,
		names: p.val.EpochFileList(p.seed+1, epoch),
	}, nil
}

// ActiveReaderDistribution reports the single consumer thread's read
// concurrency (0 or 1).
func (p *BaselinePipeline) ActiveReaderDistribution() map[int]time.Duration {
	return p.backend.Distribution()
}

// Close implements train.Pipeline.
func (p *BaselinePipeline) Close() {}

// serialIter performs synchronous per-sample reads.
type serialIter struct {
	env     conc.Env
	backend storage.Backend
	costs   Costs
	names   []string
	i       int
}

// Next implements train.Iterator.
func (it *serialIter) Next() (bool, error) {
	if it.i >= len(it.names) {
		return false, nil
	}
	name := it.names[it.i]
	it.i++
	_, err := it.backend.Read(storage.Request{Name: name})
	if err != nil {
		return false, err
	}
	if c := it.costs.Preprocess + it.costs.Consume; c > 0 {
		it.env.Sleep(c)
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Optimized (framework-intrinsic parallel I/O + prefetch + autotune)

// OptimizedConfig parameterizes the intrinsic optimization.
type OptimizedConfig struct {
	// ReaderThreads is the parallel-read pool size. TensorFlow's
	// auto-tuning "allocates the maximum number of threads (i.e., 30)
	// regardless of whether they are needed or not" (paper §V-A).
	ReaderThreads int
	// InitialBuffer and MaxBuffer bound the prefetch buffer; capacity
	// doubles whenever the consumer finds the buffer empty
	// (prefetch_autotuner.cc behaviour).
	InitialBuffer int
	MaxBuffer     int
}

// DefaultOptimizedConfig mirrors the paper's evaluation node.
func DefaultOptimizedConfig() OptimizedConfig {
	return OptimizedConfig{ReaderThreads: 30, InitialBuffer: 2, MaxBuffer: 512}
}

// Validate reports whether the config is usable.
func (c OptimizedConfig) Validate() error {
	if c.ReaderThreads < 1 {
		return fmt.Errorf("tfmini: reader threads %d < 1", c.ReaderThreads)
	}
	if c.InitialBuffer < 1 || c.MaxBuffer < c.InitialBuffer {
		return fmt.Errorf("tfmini: bad buffer bounds [%d, %d]", c.InitialBuffer, c.MaxBuffer)
	}
	return nil
}

// OptimizedPipeline is the TF-optimized setup.
type OptimizedPipeline struct {
	env     conc.Env
	backend *storage.ReaderCount // counted for Fig. 3
	train   *dataset.Manifest
	val     *dataset.Manifest
	seed    int64
	costs   Costs
	cfg     OptimizedConfig

	grows *metrics.Counter // autotune buffer doublings
	iters []*prefetchIter  // live iterators, closed with the pipeline
}

// NewOptimized builds the TF-optimized setup.
func NewOptimized(env conc.Env, backend storage.Backend, trainSet, valSet *dataset.Manifest, seed int64, costs Costs, cfg OptimizedConfig) (*OptimizedPipeline, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &OptimizedPipeline{
		env: env, backend: storage.NewReaderCount(env, backend), train: trainSet, val: valSet, seed: seed,
		costs: costs, cfg: cfg,
		grows: metrics.NewCounter(env),
	}, nil
}

// TrainIter implements train.Pipeline.
func (p *OptimizedPipeline) TrainIter(epoch int) (train.Iterator, error) {
	return p.newIter(p.train.EpochFileList(p.seed, epoch)), nil
}

// ValIter implements train.Pipeline. The optimized setup prefetches
// validation files too ("all read operations are backed by TensorFlow's
// I/O optimizations", §V-A).
func (p *OptimizedPipeline) ValIter(epoch int) (train.Iterator, error) {
	return p.newIter(p.val.EpochFileList(p.seed+1, epoch)), nil
}

func (p *OptimizedPipeline) newIter(names []string) *prefetchIter {
	it := &prefetchIter{
		env:     p.env,
		costs:   p.costs,
		total:   len(names),
		buf:     conc.NewQueue[string](p.env, p.cfg.InitialBuffer),
		maxBuf:  p.cfg.MaxBuffer,
		grows:   p.grows,
		pending: conc.NewQueue[string](p.env, 0),
		mu:      p.env.NewMutex(),
	}
	for _, n := range names {
		_ = it.pending.Put(n)
	}
	it.pending.Close()
	for i := 0; i < p.cfg.ReaderThreads; i++ {
		p.env.Go(fmt.Sprintf("tf-reader-%d", i), func() {
			for {
				name, ok := it.pending.Get()
				if !ok {
					return
				}
				_, err := p.backend.Read(storage.Request{Name: name})
				if p.costs.Preprocess > 0 {
					p.env.Sleep(p.costs.Preprocess) // map() runs in the pool
				}
				if err != nil {
					it.fail(err)
					return
				}
				if it.buf.Put(name) != nil {
					return // iterator closed early
				}
			}
		})
	}
	p.iters = append(p.iters, it)
	return it
}

// ActiveReaderDistribution reports time at each concurrent reader count —
// the TF-optimized line of Figure 3.
func (p *OptimizedPipeline) ActiveReaderDistribution() map[int]time.Duration {
	return p.backend.Distribution()
}

// BufferGrowths reports how many times the intrinsic autotuner doubled the
// prefetch buffer.
func (p *OptimizedPipeline) BufferGrowths() int64 { return p.grows.Value() }

// Close implements train.Pipeline, releasing any live reader pools.
func (p *OptimizedPipeline) Close() {
	for _, it := range p.iters {
		it.close()
	}
	p.iters = nil
}

// prefetchIter pops prefetched samples, doubling the buffer on empty finds.
type prefetchIter struct {
	env      conc.Env
	costs    Costs
	total    int
	consumed int
	buf      *conc.Queue[string]
	pending  *conc.Queue[string]
	maxBuf   int
	grows    *metrics.Counter

	mu  conc.Mutex
	err error
}

func (it *prefetchIter) fail(err error) {
	it.mu.Lock()
	if it.err == nil {
		it.err = err
	}
	it.mu.Unlock()
	it.buf.Close() // wake a consumer blocked on an empty buffer
}

func (it *prefetchIter) failed() error {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.err
}

// Next implements train.Iterator.
func (it *prefetchIter) Next() (bool, error) {
	if err := it.failed(); err != nil {
		return false, err
	}
	if it.consumed >= it.total {
		return false, nil
	}
	if _, ok := it.buf.TryGet(); ok {
		// Buffer had data: no autotune action.
	} else {
		// Consumer found the buffer empty: prefetch_autotuner doubles the
		// buffer limit, then we block for the next sample.
		if c := it.buf.Capacity(); c > 0 && c < it.maxBuf {
			next := c * 2
			if next > it.maxBuf {
				next = it.maxBuf
			}
			it.buf.SetCapacity(next)
			it.grows.Inc()
		}
		if _, ok := it.buf.Get(); !ok {
			if err := it.failed(); err != nil {
				return false, err
			}
			return false, nil
		}
	}
	it.consumed++
	if it.costs.Consume > 0 {
		it.env.Sleep(it.costs.Consume)
	}
	return true, nil
}

func (it *prefetchIter) close() {
	it.pending.Close()
	it.buf.Close()
}

// ---------------------------------------------------------------------------
// Prisma

// PrismaPipeline is the Baseline pipeline with storage access rerouted
// through a PRISMA stage. The complete integration diff against Baseline —
// mirroring the paper's 10 LoC TensorFlow change — is: (1) submit the
// epoch's shuffled filename list to the stage, (2) call stage.Read instead
// of backend.Read for training samples. Validation reads also go
// through the stage but are unplanned, so they bypass to backend storage.
type PrismaPipeline struct {
	env   conc.Env
	stage *core.Stage
	train *dataset.Manifest
	val   *dataset.Manifest
	seed  int64
	costs Costs
	// Intercept is the extra per-read cost of the interception layer
	// (POSIX shim dispatch).
	intercept time.Duration
	// prefetchVal enables the §V-A extension: validation filename lists
	// are also shared with the data plane, closing the gap to
	// TF-optimized at large batch sizes.
	prefetchVal bool
}

// SetPrefetchValidation toggles validation-file prefetching — the paper's
// noted prototype limitation ("PRISMA's prototype does not perform
// prefetching for validation files... contemplating [it] would be feasible
// and only require a few adjustments", §V-A). Enable before training.
func (p *PrismaPipeline) SetPrefetchValidation(on bool) { p.prefetchVal = on }

// NewPrisma builds the PRISMA-backed setup over an existing stage.
func NewPrisma(env conc.Env, stage *core.Stage, trainSet, valSet *dataset.Manifest, seed int64, costs Costs, intercept time.Duration) (*PrismaPipeline, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if intercept < 0 {
		return nil, fmt.Errorf("tfmini: negative interception cost")
	}
	return &PrismaPipeline{env: env, stage: stage, train: trainSet, val: valSet, seed: seed, costs: costs, intercept: intercept}, nil
}

// TrainIter implements train.Pipeline: it shares the epoch's filename list
// with the data plane (the job-script change of §IV) and then reads through
// the stage.
func (p *PrismaPipeline) TrainIter(epoch int) (train.Iterator, error) {
	names := p.train.EpochFileList(p.seed, epoch)
	if err := p.stage.SubmitPlan(names); err != nil {
		return nil, err
	}
	return &stageIter{env: p.env, stage: p.stage, costs: p.costs, intercept: p.intercept, names: names}, nil
}

// ValIter implements train.Pipeline. By default no plan is submitted —
// the prototype does not prefetch validation files (paper §V-A), so these
// reads bypass to backend storage; with SetPrefetchValidation(true) the
// validation list is planned like a training epoch.
func (p *PrismaPipeline) ValIter(epoch int) (train.Iterator, error) {
	names := p.val.EpochFileList(p.seed+1, epoch)
	if p.prefetchVal {
		if err := p.stage.SubmitPlan(names); err != nil {
			return nil, err
		}
	}
	return &stageIter{env: p.env, stage: p.stage, costs: p.costs, intercept: p.intercept, names: names}, nil
}

// Stage exposes the underlying stage (for the control plane and stats).
func (p *PrismaPipeline) Stage() *core.Stage { return p.stage }

// Close implements train.Pipeline. The stage is owned by the caller (it may
// serve other jobs), so Close does not shut it down.
func (p *PrismaPipeline) Close() {}

// stageIter reads samples through the PRISMA stage.
type stageIter struct {
	env       conc.Env
	stage     *core.Stage
	costs     Costs
	intercept time.Duration
	names     []string
	i         int
}

// Next implements train.Iterator.
func (it *stageIter) Next() (bool, error) {
	if it.i >= len(it.names) {
		return false, nil
	}
	name := it.names[it.i]
	it.i++
	if _, _, err := it.stage.Read(core.ReadRequest{Name: name}); err != nil {
		return false, err
	}
	// Preprocessing still happens framework-side (PRISMA only moves I/O).
	if c := it.costs.Preprocess + it.costs.Consume + it.intercept; c > 0 {
		it.env.Sleep(c)
	}
	return true, nil
}
