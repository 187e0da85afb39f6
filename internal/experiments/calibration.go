// Package experiments regenerates the paper's evaluation (§V): Figure 2
// (TensorFlow training times), Figure 3 (concurrent-reader-thread CDFs),
// Figure 4 (PyTorch worker sweep), and the ablations DESIGN.md calls out.
// Every run executes the real PRISMA data/control plane code under the
// deterministic virtual-time engine, over the modeled ABCI storage node.
//
// Absolute numbers are simulator-scale; the calibration below targets the
// paper's *shapes*: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured per figure.
package experiments

import (
	"time"

	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tfmini"
	"github.com/dsrhaslab/prisma-go/internal/torchmini"
)

// Calibration gathers every tunable constant of the reproduction, with the
// full-scale (scale = 1) rationale in the comments. All quantities are
// scale-invariant: at scale s the dataset shrinks to s×1.28 M files and
// measured times shrink ≈ linearly, so PaperScale extrapolation divides by
// s.
type Calibration struct {
	// Scale shrinks the dataset's manifests ((0, 1]).
	Scale float64
	// Profile is the dataset family the runs train on; the zero value is
	// ImageNet (dataset.SyntheticImageNet).
	Profile dataset.Profile
	// Epochs per run; the paper trains for 10.
	Epochs int
	// Runs per configuration; the paper averages 5.
	Runs int
	// GPUs per node (ABCI: 4× V100).
	GPUs int
	// Seed feeds dataset synthesis and per-epoch shuffles; run r uses
	// Seed+r.
	Seed int64
	// Parallelism bounds how many independent simulations execute
	// concurrently (each simulation is internally deterministic and
	// single-threaded, so results are identical at any parallelism;
	// 0 = GOMAXPROCS).
	Parallelism int

	// Device models the node's Intel P4600 SSD under the small-random-
	// read pattern of per-file training I/O (through XFS): ≈330 µs
	// per-file cost serially, with internal parallelism that saturates
	// around 4 concurrent streams — the knee that makes a handful of
	// prefetching threads enough (Fig. 3).
	Device storage.DeviceSpec

	// PerStepSync is the host-side per-step cost that does not overlap
	// with loading (batch collation, feed dispatch). Fewer steps at
	// larger batches is what improves PRISMA and TF-optimized with batch
	// size while leaving the I/O-dominated baseline nearly flat (§V-A).
	PerStepSync time.Duration

	// TensorFlow-side costs (Fig. 2, Fig. 3).
	TFBaselineCosts  tfmini.Costs
	TFOptimizedCosts tfmini.Costs
	TFOptimized      tfmini.OptimizedConfig
	TFPrismaCosts    tfmini.Costs
	// TFPrismaIntercept is the per-read dispatch cost of the POSIX
	// interception layer in thread mode.
	TFPrismaIntercept time.Duration
	// TFPrismaStage configures PRISMA's data plane for the TensorFlow
	// (thread-based) integration: buffer access is a plain mutex.
	TFPrismaStage core.StageConfig

	// PyTorch-side costs (Fig. 4).
	TorchCosts          torchmini.Costs
	TorchPrefetchFactor int
	// TorchPrismaStage configures PRISMA's data plane for the PyTorch
	// (process-based) integration: every buffer access carries the
	// serialized UDS round-trip cost, the §V-B bottleneck at 8+ workers.
	TorchPrismaStage core.StageConfig

	// Control plane. Algorithm builds each PRISMA stage's control
	// algorithm (nil = the feedback auto-tuner, control.NewAutotuner).
	Policy          control.Policy
	ControlInterval time.Duration
	Algorithm       func() control.Algorithm
}

// Default returns the calibration used throughout the repository.
func Default() Calibration {
	cal := Calibration{
		Scale:  1.0 / 128,
		Epochs: 10,
		Runs:   5,
		GPUs:   4,
		Seed:   1,

		// 185 µs base + 113 KB / 1.4 GBps ≈ 266 µs per file in a single
		// stream (≈3.3 k files/s serial with the host-side per-sample
		// costs on top — the ≈4,100 s TF-baseline floor the paper
		// reports); 3 channels ≈ 11 k files/s at depth, the ceiling both
		// TF-optimized and PRISMA converge to for I/O-bound models.
		Device: storage.DeviceSpec{
			Name:           "abci-p4600-xfs",
			BaseLatency:    185 * time.Microsecond,
			BytesPerSecond: 1.4e9,
			Channels:       3,
		},

		PerStepSync: 6 * time.Millisecond,

		// Baseline pays decode in the consumer thread on top of the
		// serial read.
		TFBaselineCosts: tfmini.Costs{Preprocess: 30 * time.Microsecond, Consume: 5 * time.Microsecond},
		// tf.data maps preprocessing into the reader pool; the consumer
		// pays only iterator overhead.
		TFOptimizedCosts: tfmini.Costs{Preprocess: 30 * time.Microsecond, Consume: 8 * time.Microsecond},
		TFOptimized:      tfmini.OptimizedConfig{ReaderThreads: 30, InitialBuffer: 2, MaxBuffer: 512},
		// PRISMA moves only I/O: decode stays in the consumer thread.
		TFPrismaCosts:     tfmini.Costs{Preprocess: 30 * time.Microsecond, Consume: 5 * time.Microsecond},
		TFPrismaIntercept: 65 * time.Microsecond,
		TFPrismaStage: core.StageConfig{
			InitialProducers:      1,
			MaxProducers:          32,
			InitialBufferCapacity: 16,
			MaxBufferCapacity:     2048,
			// Thread-mode buffer handoff: mutex + map + memcpy hand-off.
			BufferAccessCost: 18 * time.Microsecond,
		},

		// PyTorch workers decode in-process; collate assembles the batch.
		TorchCosts:          torchmini.Costs{Preprocess: 150 * time.Microsecond, Collate: 2 * time.Millisecond},
		TorchPrefetchFactor: 2,
		TorchPrismaStage: core.StageConfig{
			InitialProducers: 1,
			MaxProducers:     32,
			// The PyTorch integration sizes the buffer to cover two
			// DataLoader batches (2×1024 samples): workers consume whole
			// batches round-robin, so a smaller window gates every worker
			// behind the one consuming the oldest batch — part of "tuning
			// PRISMA for PyTorch's operation model" (§V-B).
			InitialBufferCapacity: 2048,
			MaxBufferCapacity:     4096,
			// Process-mode buffer handoff: UDS round trip + server-side
			// lock. Serialized across all workers — the reason native
			// PyTorch edges PRISMA out at 8-16 workers (§V-B).
			BufferAccessCost: 55 * time.Microsecond,
		},

		Policy:          control.DefaultPolicy(),
		ControlInterval: 250 * time.Millisecond,
	}
	return cal
}

// datasets synthesizes the train and validation manifests of the run with
// the given seed.
func (cal Calibration) datasets(seed int64) (train, val *dataset.Manifest, err error) {
	if cal.Profile.Name == "" {
		return dataset.SyntheticImageNet(cal.Scale, seed)
	}
	return cal.Profile.Synthesize(cal.Scale, seed)
}

// algorithm builds a PRISMA stage's control algorithm.
func (cal Calibration) algorithm() control.Algorithm {
	if cal.Algorithm == nil {
		return control.NewAutotuner()
	}
	return cal.Algorithm()
}

// BatchSizes are the per-GPU batch sizes of Fig. 2.
func BatchSizes() []int { return []int{64, 128, 256} }

// WorkerCounts are the DataLoader worker counts of Fig. 4.
func WorkerCounts() []int { return []int{0, 2, 4, 8, 16} }

// TFSetups are the Fig. 2 setup names, in presentation order.
func TFSetups() []string { return []string{"tf-baseline", "tf-optimized", "prisma"} }
