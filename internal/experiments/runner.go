package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tfmini"
	"github.com/dsrhaslab/prisma-go/internal/torchmini"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// RunMeasurement is everything captured from one simulated training run.
type RunMeasurement struct {
	Elapsed time.Duration
	Result  train.Result
	// Readers is the time-at-concurrent-reader-count distribution of the
	// setup's storage-facing threads (Fig. 3 signal).
	Readers map[int]time.Duration
	// FinalTuning is the tuning the control plane converged to (PRISMA
	// setups only).
	FinalTuning control.Tuning
	// StageStats is the final data-plane snapshot (PRISMA setups only).
	StageStats core.StageStats
}

// RunTF executes one TensorFlow-side training run (Fig. 2 / Fig. 3 cell,
// and every TF ablation) in a fresh simulation over cal's dataset profile,
// device, stage config and control algorithm. setup is one of TFSetups()
// or "prisma-valprefetch".
func RunTF(cal Calibration, model train.Model, batch int, setup string, seed int64) (RunMeasurement, error) {
	var out RunMeasurement
	var runErr error

	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("experiment-driver", func(*sim.Process) {
		trainSet, valSet, err := cal.datasets(seed)
		if err != nil {
			runErr = err
			return
		}
		all := mergeManifests(trainSet, valSet)
		device, err := storage.NewDevice(env, cal.Device)
		if err != nil {
			runErr = err
			return
		}
		backend := storage.NewModeledBackend(all, device)

		cfg := train.Config{
			Model:       model,
			BatchPerGPU: batch,
			GPUs:        cal.GPUs,
			Epochs:      cal.Epochs,
			PerStepSync: cal.PerStepSync,
			Validation:  true,
		}
		gpus := train.NewGPUCluster(env, cal.GPUs)

		var pipeline train.Pipeline
		var readers func() map[int]time.Duration
		var stage *core.Stage
		var ctl *control.Controller

		switch setup {
		case "tf-baseline":
			p, err := tfmini.NewBaseline(env, backend, trainSet, valSet, seed, cal.TFBaselineCosts)
			if err != nil {
				runErr = err
				return
			}
			pipeline, readers = p, p.ActiveReaderDistribution

		case "tf-optimized":
			p, err := tfmini.NewOptimized(env, backend, trainSet, valSet, seed, cal.TFOptimizedCosts, cal.TFOptimized)
			if err != nil {
				runErr = err
				return
			}
			pipeline, readers = p, p.ActiveReaderDistribution

		case "prisma", "prisma-valprefetch":
			// Only the producers' reads are counted: the stage's own
			// bypass reads go to backend directly.
			counted := storage.NewReaderCount(env, backend)
			stageCfg := cal.TFPrismaStage
			stageCfg.ProducerBackend = counted
			var err error
			if stage, err = core.NewStage(env, backend, all, stageCfg); err != nil {
				runErr = err
				return
			}
			stage.Start()
			initial := control.Tuning{
				Producers:      cal.TFPrismaStage.InitialProducers,
				BufferCapacity: cal.TFPrismaStage.InitialBufferCapacity,
			}
			if ctl, err = control.NewController(env, cal.ControlInterval, stage, cal.algorithm(), cal.Policy, initial); err != nil {
				runErr = err
				return
			}
			ctl.Start()
			p, err := tfmini.NewPrisma(env, stage, trainSet, valSet, seed, cal.TFPrismaCosts, cal.TFPrismaIntercept)
			if err != nil {
				runErr = err
				return
			}
			if setup == "prisma-valprefetch" {
				p.SetPrefetchValidation(true)
			}
			pipeline, readers = p, counted.Distribution

		default:
			runErr = fmt.Errorf("experiments: unknown TF setup %q", setup)
			return
		}

		res, err := train.Run(env, cfg, pipeline, gpus)
		if err != nil {
			runErr = err
		}
		out.Elapsed = res.Elapsed
		out.Result = res
		out.Readers = readers()
		if ctl != nil {
			out.FinalTuning = ctl.Applied()
			ctl.Stop()
		}
		if stage != nil {
			out.StageStats = stage.Stats()
			stage.Close()
		}
		pipeline.Close()
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("experiments: simulation: %w", err)
	}
	if runErr != nil {
		return out, runErr
	}
	return out, nil
}

// RunTorch executes one PyTorch-side training run (Fig. 4 cell) in a fresh
// simulation. setup is "pytorch" or "prisma".
func RunTorch(cal Calibration, model train.Model, batch, workers int, setup string, seed int64) (RunMeasurement, error) {
	var out RunMeasurement
	var runErr error

	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("experiment-driver", func(*sim.Process) {
		trainSet, valSet, err := cal.datasets(seed)
		if err != nil {
			runErr = err
			return
		}
		all := mergeManifests(trainSet, valSet)
		device, err := storage.NewDevice(env, cal.Device)
		if err != nil {
			runErr = err
			return
		}
		backend := storage.NewModeledBackend(all, device)

		cfg := train.Config{
			Model:       model,
			BatchPerGPU: batch,
			GPUs:        cal.GPUs,
			Epochs:      cal.Epochs,
			PerStepSync: cal.PerStepSync,
			Validation:  true,
		}
		gpus := train.NewGPUCluster(env, cal.GPUs)
		loaderCfg := torchmini.Config{
			Workers:        workers,
			GlobalBatch:    batch * cal.GPUs,
			PrefetchFactor: cal.TorchPrefetchFactor,
			Costs:          cal.TorchCosts,
		}

		var pipeline train.Pipeline
		var stage *core.Stage
		var counted *storage.ReaderCount
		var ctl *control.Controller

		switch setup {
		case "pytorch":
			p, err := torchmini.NewDataLoader(env, backend, trainSet, valSet, seed, loaderCfg)
			if err != nil {
				runErr = err
				return
			}
			pipeline = p

		case "prisma":
			// Only the producers' reads are counted, as for TensorFlow.
			counted = storage.NewReaderCount(env, backend)
			stageCfg := cal.TorchPrismaStage
			stageCfg.ProducerBackend = counted
			var err error
			if stage, err = core.NewStage(env, backend, all, stageCfg); err != nil {
				runErr = err
				return
			}
			stage.Start()
			initial := control.Tuning{
				Producers:      cal.TorchPrismaStage.InitialProducers,
				BufferCapacity: cal.TorchPrismaStage.InitialBufferCapacity,
			}
			if ctl, err = control.NewController(env, cal.ControlInterval, stage, cal.algorithm(), cal.Policy, initial); err != nil {
				runErr = err
				return
			}
			ctl.Start()
			p, err := torchmini.NewPrismaLoader(env, stage, trainSet, valSet, seed, loaderCfg)
			if err != nil {
				runErr = err
				return
			}
			pipeline = p

		default:
			runErr = fmt.Errorf("experiments: unknown Torch setup %q", setup)
			return
		}

		res, err := train.Run(env, cfg, pipeline, gpus)
		if err != nil {
			runErr = err
		}
		out.Elapsed = res.Elapsed
		out.Result = res
		if stage != nil {
			out.Readers = counted.Distribution()
			out.FinalTuning = ctl.Applied()
			out.StageStats = stage.Stats()
		}
		if ctl != nil {
			ctl.Stop()
		}
		pipeline.Close()
		if stage != nil {
			stage.Close()
		}
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("experiments: simulation: %w", err)
	}
	if runErr != nil {
		return out, runErr
	}
	return out, nil
}

// mergeManifests unions two manifests (train + validation live on the same
// device).
func mergeManifests(a, b *dataset.Manifest) *dataset.Manifest {
	samples := make([]dataset.Sample, 0, a.Len()+b.Len())
	for i := 0; i < a.Len(); i++ {
		samples = append(samples, a.Sample(i))
	}
	for i := 0; i < b.Len(); i++ {
		samples = append(samples, b.Sample(i))
	}
	return dataset.MustNew(samples)
}

// uniformManifest lists names, each size bytes, for a stage over a backend
// that holds exactly those files.
func uniformManifest(names []string, size int64) *dataset.Manifest {
	samples := make([]dataset.Sample, len(names))
	for i, n := range names {
		samples[i] = dataset.Sample{Name: n, Size: size}
	}
	return dataset.MustNew(samples)
}

// PaperScale extrapolates a measured duration at cal.Scale to full
// ImageNet scale.
func (cal Calibration) PaperScale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / cal.Scale)
}
