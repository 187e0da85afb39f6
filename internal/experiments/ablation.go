package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tfmini"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Sweep      string // which knob is swept
	Value      string // the knob's value
	Elapsed    time.Duration
	PaperScale time.Duration
	MaxThreads int
	Tuning     string
}

// runPrismaTF runs the PRISMA TF setup (LeNet, batch 256 unless stated)
// with an arbitrary algorithm and stage config — shared scaffolding for
// the ablations.
func runPrismaTF(cal Calibration, model train.Model, batch int, stageCfg core.PrefetcherConfig, newAlg func() control.Algorithm, pol control.Policy, device storage.DeviceSpec, seed int64) (RunMeasurement, error) {
	var out RunMeasurement
	var runErr error
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("ablation-driver", func(*sim.Process) {
		trainSet, valSet, err := dataset.SyntheticImageNet(cal.Scale, seed)
		if err != nil {
			runErr = err
			return
		}
		dev, err := storage.NewDevice(env, device)
		if err != nil {
			runErr = err
			return
		}
		backend := storage.NewModeledBackend(mergeManifests(trainSet, valSet), dev, nil)
		pf, err := core.NewPrefetcher(env, backend, stageCfg)
		if err != nil {
			runErr = err
			return
		}
		stage := core.NewStage(env, backend, pf)
		pf.Start()
		ctl := control.NewController(env, cal.ControlInterval)
		initial := control.Tuning{Producers: stageCfg.InitialProducers, BufferCapacity: stageCfg.InitialBufferCapacity}
		if err := ctl.Attach("stage", stage, newAlg(), pol, initial); err != nil {
			runErr = err
			return
		}
		ctl.Start()
		p, err := tfmini.NewPrisma(env, stage, trainSet, valSet, seed, cal.TFPrismaCosts, cal.TFPrismaIntercept)
		if err != nil {
			runErr = err
			return
		}
		cfg := train.Config{
			Model: model, BatchPerGPU: batch, GPUs: cal.GPUs, Epochs: cal.Epochs,
			PerStepSync: cal.PerStepSync, Validation: true,
		}
		gpus := train.NewGPUCluster(env, cal.GPUs)
		res, err := train.Run(env, cfg, p, gpus)
		if err != nil {
			runErr = err
		}
		out.Elapsed = res.Elapsed
		out.Result = res
		out.Readers = pf.ActiveReaderDistribution()
		out.FinalTuning, _ = ctl.Applied("stage")
		out.StageStats = stage.Stats()
		ctl.Stop()
		stage.Close()
		p.Close()
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("experiments: ablation simulation: %w", err)
	}
	return out, runErr
}

// RunAblationStaticT contrasts the auto-tuner against statically pinned
// producer counts — the design claim that the feedback loop matches the
// best manual configuration without the manual search (paper §V-B).
func RunAblationStaticT(cal Calibration, staticTs []int, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	var rows []AblationRow
	emit := func(r AblationRow) {
		rows = append(rows, r)
		if report != nil {
			report(fmt.Sprintf("ablation %-10s %-10s elapsed=%-12v max-threads=%d %s",
				r.Sweep, r.Value, r.Elapsed.Round(time.Millisecond), r.MaxThreads, r.Tuning))
		}
	}
	for _, t := range staticTs {
		cfgCopy := cal.TFPrismaStage
		cfgCopy.InitialProducers = t
		if cfgCopy.MaxProducers < t {
			cfgCopy.MaxProducers = t
		}
		pol := cal.Policy
		m, err := runPrismaTF(cal, model, 256, cfgCopy, func() control.Algorithm {
			return control.StaticAlgorithm{Fixed: control.Tuning{Producers: t, BufferCapacity: cfgCopy.InitialBufferCapacity}}
		}, pol, cal.Device, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation static t=%d: %w", t, err)
		}
		emit(AblationRow{
			Sweep: "static-t", Value: fmt.Sprintf("t=%d", t),
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
			Tuning:     fmt.Sprintf("t=%d N=%d", m.FinalTuning.Producers, m.FinalTuning.BufferCapacity),
		})
	}
	m, err := runPrismaTF(cal, model, 256, cal.TFPrismaStage, func() control.Algorithm { return control.NewAutotuner() }, cal.Policy, cal.Device, cal.Seed)
	if err != nil {
		return nil, fmt.Errorf("ablation autotune: %w", err)
	}
	emit(AblationRow{
		Sweep: "static-t", Value: "autotune",
		Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
		MaxThreads: metrics.MaxValue(m.Readers),
		Tuning:     fmt.Sprintf("t=%d N=%d", m.FinalTuning.Producers, m.FinalTuning.BufferCapacity),
	})
	return rows, nil
}

// RunAblationBuffer sweeps a fixed buffer capacity N (producers pinned at
// the tuner's typical convergence point) to expose the capacity/benefit
// curve.
func RunAblationBuffer(cal Calibration, capacities []int, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	var rows []AblationRow
	for _, n := range capacities {
		cfgCopy := cal.TFPrismaStage
		cfgCopy.InitialBufferCapacity = n
		if cfgCopy.MaxBufferCapacity < n {
			cfgCopy.MaxBufferCapacity = n
		}
		cfgCopy.InitialProducers = 4
		m, err := runPrismaTF(cal, model, 256, cfgCopy, func() control.Algorithm {
			return control.StaticAlgorithm{Fixed: control.Tuning{Producers: 4, BufferCapacity: n}}
		}, cal.Policy, cal.Device, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation buffer N=%d: %w", n, err)
		}
		row := AblationRow{
			Sweep: "buffer-n", Value: fmt.Sprintf("N=%d", n),
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-10s %-10s elapsed=%v", row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond)))
		}
	}
	return rows, nil
}

// RunAblationDevices contrasts storage media (the portability argument:
// the same decoupled optimization adapts to each device's parallelism).
func RunAblationDevices(cal Calibration, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	devices := []storage.DeviceSpec{cal.Device, storage.SATAHDD(), storage.NFSShare()}
	var rows []AblationRow
	for _, dev := range devices {
		m, err := runPrismaTF(cal, model, 256, cal.TFPrismaStage, func() control.Algorithm { return control.NewAutotuner() }, cal.Policy, dev, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation device %s: %w", dev.Name, err)
		}
		row := AblationRow{
			Sweep: "device", Value: dev.Name,
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
			Tuning:     fmt.Sprintf("t=%d N=%d", m.FinalTuning.Producers, m.FinalTuning.BufferCapacity),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-10s %-14s elapsed=%-12v converged %s", row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond), row.Tuning))
		}
	}
	return rows, nil
}

// RunAblationDatasets sweeps dataset families from "a few MiB to several
// TiB" (§I): PRISMA's benefit tracks how far the storage path is from
// keeping up with the model — negligible on cache-resident MNIST/CIFAR,
// large on the file-per-sample ImageNet/OpenImages shape. Each family runs
// TF-baseline and PRISMA on LeNet at a per-family scale that keeps event
// counts comparable.
func RunAblationDatasets(cal Calibration, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	var rows []AblationRow
	for _, prof := range dataset.Profiles() {
		if prof.Name == "youtube8m" || prof.Name == "openimages" {
			continue // multi-TiB families need tiny scales; covered by unit tests
		}
		// Normalize each family to roughly the ImageNet cell's file count.
		scale := cal.Scale * float64(dataset.ImageNetTrainFiles) / float64(prof.TrainFiles)
		if scale > 1 {
			scale = 1
		}
		var times [2]time.Duration
		for i, setup := range []string{"tf-baseline", "prisma"} {
			m, err := runProfileTF(cal, prof, scale, model, 256, setup)
			if err != nil {
				return nil, fmt.Errorf("ablation dataset %s/%s: %w", prof.Name, setup, err)
			}
			times[i] = m
		}
		reduction := 1 - float64(times[1])/float64(times[0])
		row := AblationRow{
			Sweep: "dataset", Value: prof.Name,
			Elapsed:    times[1],
			PaperScale: time.Duration(float64(times[1]) / scale),
			Tuning:     fmt.Sprintf("reduction %.0f%%", reduction*100),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-8s %-11s baseline=%-12v prisma=%-12v reduction=%.0f%%",
				row.Sweep, row.Value, times[0].Round(time.Millisecond), times[1].Round(time.Millisecond), reduction*100))
		}
	}
	return rows, nil
}

// runProfileTF runs one TF-side setup over an arbitrary dataset profile.
func runProfileTF(cal Calibration, prof dataset.Profile, scale float64, model train.Model, batch int, setup string) (time.Duration, error) {
	var elapsed time.Duration
	var runErr error
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("dataset-ablation", func(*sim.Process) {
		trainSet, valSet, err := prof.Synthesize(scale, cal.Seed)
		if err != nil {
			runErr = err
			return
		}
		dev, err := storage.NewDevice(env, cal.Device)
		if err != nil {
			runErr = err
			return
		}
		backend := storage.NewModeledBackend(mergeManifests(trainSet, valSet), dev, nil)
		cfg := train.Config{
			Model: model, BatchPerGPU: batch, GPUs: cal.GPUs, Epochs: cal.Epochs,
			PerStepSync: cal.PerStepSync, Validation: true,
		}
		gpus := train.NewGPUCluster(env, cal.GPUs)
		switch setup {
		case "tf-baseline":
			p, err := tfmini.NewBaseline(env, backend, trainSet, valSet, cal.Seed, cal.TFBaselineCosts)
			if err != nil {
				runErr = err
				return
			}
			res, err := train.Run(env, cfg, p, gpus)
			if err != nil {
				runErr = err
				return
			}
			elapsed = res.Elapsed
		case "prisma":
			pf, err := core.NewPrefetcher(env, backend, cal.TFPrismaStage)
			if err != nil {
				runErr = err
				return
			}
			stage := core.NewStage(env, backend, pf)
			pf.Start()
			ctl := control.NewController(env, cal.ControlInterval)
			initial := control.Tuning{Producers: cal.TFPrismaStage.InitialProducers, BufferCapacity: cal.TFPrismaStage.InitialBufferCapacity}
			if err := ctl.Attach("stage", stage, control.NewAutotuner(), cal.Policy, initial); err != nil {
				runErr = err
				return
			}
			ctl.Start()
			p, err := tfmini.NewPrisma(env, stage, trainSet, valSet, cal.Seed, cal.TFPrismaCosts, cal.TFPrismaIntercept)
			if err != nil {
				runErr = err
				return
			}
			res, err := train.Run(env, cfg, p, gpus)
			if err != nil {
				runErr = err
			}
			elapsed = res.Elapsed
			ctl.Stop()
			stage.Close()
		default:
			runErr = fmt.Errorf("unknown setup %q", setup)
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return elapsed, runErr
}

// RunAblationAlgorithms contrasts control algorithms for the same knobs —
// the comparison §V-A leaves open ("the same may not hold true when
// considering other control algorithms"): the plateau-guarded feedback
// loop, TCP-style AIMD, a throughput-only hill climber, and the
// TensorFlow-style grow-only policy.
func RunAblationAlgorithms(cal Calibration, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	algs := []string{"prisma-autotune", "aimd", "hill-climb", "tf-growth"}
	var rows []AblationRow
	for _, name := range algs {
		name := name
		factory := func() control.Algorithm {
			if name == "tf-growth" {
				return control.GrowthAlgorithm{}
			}
			alg, _ := control.AlgorithmByName(name)
			return alg
		}
		pol := cal.Policy
		m, err := runPrismaTF(cal, model, 256, cal.TFPrismaStage, factory, pol, cal.Device, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation algorithm %s: %w", name, err)
		}
		row := AblationRow{
			Sweep: "algorithm", Value: name,
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
			Tuning:     fmt.Sprintf("t=%d N=%d", m.FinalTuning.Producers, m.FinalTuning.BufferCapacity),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-10s %-16s elapsed=%-12v max-threads=%d converged %s",
				row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond), row.MaxThreads, row.Tuning))
		}
	}
	return rows, nil
}

// RunAblationPackedFormat contrasts per-file random reads against a
// TFRecord-style packed layout read sequentially in large chunks — the
// "optimized data formats" class of storage optimization (§II), here built
// as another self-contained data-plane building block (internal/recordio).
// A single-reader pass over one training epoch isolates the format effect
// from prefetching.
func RunAblationPackedFormat(cal Calibration, chunkSizes []int64, report func(string)) ([]AblationRow, error) {
	var rows []AblationRow
	emit := func(r AblationRow) {
		rows = append(rows, r)
		if report != nil {
			report(fmt.Sprintf("ablation %-12s %-14s elapsed=%v", r.Sweep, r.Value, r.Elapsed.Round(time.Millisecond)))
		}
	}

	run := func(value string, body func(env conc.Env) error) error {
		s := sim.New()
		env := conc.NewSimEnv(s)
		var inner error
		var elapsed time.Duration
		s.Spawn("packed-ablation", func(*sim.Process) {
			start := env.Now()
			inner = body(env)
			elapsed = env.Now() - start
		})
		if err := s.Run(); err != nil {
			return err
		}
		if inner != nil {
			return inner
		}
		emit(AblationRow{Sweep: "data-format", Value: value, Elapsed: elapsed, PaperScale: cal.PaperScale(elapsed)})
		return nil
	}

	trainSet, _, err := dataset.SyntheticImageNet(cal.Scale, cal.Seed)
	if err != nil {
		return nil, err
	}

	// Raw per-file reads, one epoch, single reader.
	err = run("raw-files", func(env conc.Env) error {
		dev, err := storage.NewDevice(env, cal.Device)
		if err != nil {
			return err
		}
		backend := storage.NewModeledBackend(trainSet, dev, nil)
		for _, name := range trainSet.EpochFileList(cal.Seed, 0) {
			if _, err := backend.Read(storage.Request{Name: name}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Packed sequential reads at each chunk size (shard order; packed
	// formats trade shuffle granularity for sequential bandwidth, which
	// is exactly the trade-off this row quantifies).
	for _, chunk := range chunkSizes {
		chunk := chunk
		ix, shardMan, err := recordio.PackManifest(trainSet, "packed", 1<<30)
		if err != nil {
			return nil, err
		}
		err = run(fmt.Sprintf("packed-%dMiB", chunk>>20), func(env conc.Env) error {
			dev, err := storage.NewDevice(env, cal.Device)
			if err != nil {
				return err
			}
			backend := storage.NewModeledBackend(shardMan, dev, nil)
			for _, shard := range ix.Shards() {
				size, err := backend.Size(shard)
				if err != nil {
					return err
				}
				it, err := recordio.NewShardIterator(backend, shard, size, chunk)
				if err != nil {
					return err
				}
				for i := 0; i < trainSet.Len(); i++ {
					e, ok := ix.Lookup(trainSet.Sample(i).Name)
					if !ok || e.Shard != shard {
						continue
					}
					if ok, err := it.NextModeled(e.Length); err != nil || !ok {
						return fmt.Errorf("shard iteration: %v %v", ok, err)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RunAblationValPrefetch quantifies the §V-A prototype limitation: PRISMA
// without validation prefetching vs the extension that plans validation
// files too, against TF-optimized (which always prefetches validation).
func RunAblationValPrefetch(cal Calibration, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	var rows []AblationRow
	for _, setup := range []string{"prisma", "prisma-valprefetch", "tf-optimized"} {
		m, err := RunTF(cal, model, 256, setup, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation val-prefetch %s: %w", setup, err)
		}
		row := AblationRow{
			Sweep: "val-prefetch", Value: setup,
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-12s %-20s elapsed=%v", row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond)))
		}
	}
	return rows, nil
}

// RunAblationAccessCost sweeps the serialized buffer access cost — the
// §V-B synchronization bottleneck — quantifying when IPC serialization
// erases the prefetching win.
func RunAblationAccessCost(cal Calibration, costs []time.Duration, report func(string)) ([]AblationRow, error) {
	model := train.LeNet()
	var rows []AblationRow
	for _, c := range costs {
		cfgCopy := cal.TFPrismaStage
		cfgCopy.BufferAccessCost = c
		m, err := runPrismaTF(cal, model, 256, cfgCopy, func() control.Algorithm { return control.NewAutotuner() }, cal.Policy, cal.Device, cal.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation access cost %v: %w", c, err)
		}
		row := AblationRow{
			Sweep: "access-cost", Value: c.String(),
			Elapsed: m.Elapsed, PaperScale: cal.PaperScale(m.Elapsed),
			MaxThreads: metrics.MaxValue(m.Readers),
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-11s %-8s elapsed=%v", row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond)))
		}
	}
	return rows, nil
}
