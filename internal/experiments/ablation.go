package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
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

// prismaRow runs the PRISMA TF setup (LeNet, batch 256) under c — the one
// cell every (t, N) ablation sweeps — and reports it as a row with the
// peak reader count.
func prismaRow(c Calibration, sweep, value string) (AblationRow, RunMeasurement, error) {
	m, err := RunTF(c, train.LeNet(), 256, "prisma", c.Seed)
	return AblationRow{
		Sweep: sweep, Value: value,
		Elapsed: m.Elapsed, PaperScale: c.PaperScale(m.Elapsed),
		MaxThreads: metrics.MaxValue(m.Readers),
	}, m, err
}

// converged formats the tuning the control plane converged to.
func converged(t control.Tuning) string {
	return fmt.Sprintf("t=%d N=%d", t.Producers, t.BufferCapacity)
}

// RunAblationStaticT contrasts the auto-tuner against statically pinned
// producer counts — the design claim that the feedback loop matches the
// best manual configuration without the manual search (paper §V-B).
func RunAblationStaticT(cal Calibration, staticTs []int, report func(string)) ([]AblationRow, error) {
	var rows []AblationRow
	emit := func(r AblationRow) {
		rows = append(rows, r)
		if report != nil {
			report(fmt.Sprintf("ablation %-10s %-10s elapsed=%-12v max-threads=%d %s",
				r.Sweep, r.Value, r.Elapsed.Round(time.Millisecond), r.MaxThreads, r.Tuning))
		}
	}
	for _, t := range staticTs {
		c := cal
		c.TFPrismaStage.InitialProducers = t
		c.TFPrismaStage.MaxProducers = max(c.TFPrismaStage.MaxProducers, t)
		fixed := control.Tuning{Producers: t, BufferCapacity: c.TFPrismaStage.InitialBufferCapacity}
		c.Algorithm = func() control.Algorithm { return control.StaticAlgorithm{Fixed: fixed} }
		row, m, err := prismaRow(c, "static-t", fmt.Sprintf("t=%d", t))
		if err != nil {
			return nil, fmt.Errorf("ablation static t=%d: %w", t, err)
		}
		row.Tuning = converged(m.FinalTuning)
		emit(row)
	}
	row, m, err := prismaRow(cal, "static-t", "autotune")
	if err != nil {
		return nil, fmt.Errorf("ablation autotune: %w", err)
	}
	row.Tuning = converged(m.FinalTuning)
	emit(row)
	return rows, nil
}

// RunAblationBuffer sweeps a fixed buffer capacity N (producers pinned at
// the tuner's typical convergence point) to expose the capacity/benefit
// curve.
func RunAblationBuffer(cal Calibration, capacities []int, report func(string)) ([]AblationRow, error) {
	var rows []AblationRow
	for _, n := range capacities {
		c := cal
		c.TFPrismaStage.InitialBufferCapacity = n
		c.TFPrismaStage.MaxBufferCapacity = max(c.TFPrismaStage.MaxBufferCapacity, n)
		c.TFPrismaStage.InitialProducers = 4
		fixed := control.Tuning{Producers: 4, BufferCapacity: n}
		c.Algorithm = func() control.Algorithm { return control.StaticAlgorithm{Fixed: fixed} }
		row, _, err := prismaRow(c, "buffer-n", fmt.Sprintf("N=%d", n))
		if err != nil {
			return nil, fmt.Errorf("ablation buffer N=%d: %w", n, err)
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
	devices := []storage.DeviceSpec{cal.Device, storage.SATAHDD(), storage.NFSShare()}
	var rows []AblationRow
	for _, dev := range devices {
		c := cal
		c.Device = dev
		row, m, err := prismaRow(c, "device", dev.Name)
		if err != nil {
			return nil, fmt.Errorf("ablation device %s: %w", dev.Name, err)
		}
		row.Tuning = converged(m.FinalTuning)
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
	var rows []AblationRow
	for _, prof := range dataset.Profiles() {
		if prof.Name == "youtube8m" || prof.Name == "openimages" {
			continue // multi-TiB families need tiny scales; covered by unit tests
		}
		// Normalize each family to roughly the ImageNet cell's file count.
		c := cal
		c.Profile = prof
		c.Scale = min(cal.Scale*float64(dataset.ImageNetTrainFiles)/float64(prof.TrainFiles), 1)
		var times [2]time.Duration
		for i, setup := range []string{"tf-baseline", "prisma"} {
			m, err := RunTF(c, train.LeNet(), 256, setup, c.Seed)
			if err != nil {
				return nil, fmt.Errorf("ablation dataset %s/%s: %w", prof.Name, setup, err)
			}
			times[i] = m.Elapsed
		}
		reduction := 1 - float64(times[1])/float64(times[0])
		row := AblationRow{
			Sweep: "dataset", Value: prof.Name,
			Elapsed:    times[1],
			PaperScale: c.PaperScale(times[1]),
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

// RunAblationAlgorithms contrasts control algorithms for the same knobs —
// the comparison §V-A leaves open ("the same may not hold true when
// considering other control algorithms"): the plateau-guarded feedback
// loop, TCP-style AIMD, a throughput-only hill climber, and the
// TensorFlow-style grow-only policy.
func RunAblationAlgorithms(cal Calibration, report func(string)) ([]AblationRow, error) {
	algs := []func() control.Algorithm{
		func() control.Algorithm { return control.NewAutotuner() },
		func() control.Algorithm { return control.NewAIMD() },
		func() control.Algorithm { return control.NewHillClimb() },
		func() control.Algorithm { return control.GrowthAlgorithm{} },
	}
	var rows []AblationRow
	for _, alg := range algs {
		name := alg().Name()
		c := cal
		c.Algorithm = alg
		row, m, err := prismaRow(c, "algorithm", name)
		if err != nil {
			return nil, fmt.Errorf("ablation algorithm %s: %w", name, err)
		}
		row.Tuning = converged(m.FinalTuning)
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
// "optimized data formats" class of storage optimization (§II), modeled as
// a walk over the shards' byte layout (packedShards, readShard). A
// single-reader pass over one training epoch isolates the format effect
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
		backend := storage.NewModeledBackend(trainSet, dev)
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
	shards := packedShards(trainSet, 1<<30)
	for _, chunk := range chunkSizes {
		chunk := chunk
		err = run(fmt.Sprintf("packed-%dMiB", chunk>>20), func(env conc.Env) error {
			dev, err := storage.NewDevice(env, cal.Device)
			if err != nil {
				return err
			}
			for _, records := range shards {
				readShard(dev, records, chunk)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// packedRecordHeader is the per-record prefix of the TFRecord-style layout:
// a uint32 payload length and a uint32 checksum.
const packedRecordHeader = 8

// packedShards lays man's samples into shards of at most shardBytes (a
// record larger than that gets a shard of its own), in manifest order, and
// returns each shard's record lengths, header included.
func packedShards(man *dataset.Manifest, shardBytes int64) [][]int64 {
	var shards [][]int64
	var cur []int64
	var size int64
	for i := 0; i < man.Len(); i++ {
		rec := packedRecordHeader + man.Sample(i).Size
		if size > 0 && size+rec > shardBytes {
			shards = append(shards, cur)
			cur, size = nil, 0
		}
		cur = append(cur, rec)
		size += rec
	}
	return append(shards, cur)
}

// readShard charges dev for one sequential pass over a shard of records:
// one device request of min(chunk, bytes left in the shard) each time the
// next record reaches past the bytes already read, starting where the
// read-ahead ended.
func readShard(dev *storage.Device, records []int64, chunk int64) {
	var shardSize int64
	for _, rec := range records {
		shardSize += rec
	}
	var pos, buffered int64 // next record's offset; end of the bytes read
	for _, rec := range records {
		end := pos + rec
		for buffered < end {
			pos = max(pos, buffered)
			n := min(chunk, shardSize-pos)
			dev.Read(n)
			buffered = pos + n
		}
		pos = end
	}
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
	var rows []AblationRow
	for _, cost := range costs {
		c := cal
		c.TFPrismaStage.BufferAccessCost = cost
		row, _, err := prismaRow(c, "access-cost", cost.String())
		if err != nil {
			return nil, fmt.Errorf("ablation access cost %v: %w", cost, err)
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("ablation %-11s %-8s elapsed=%v", row.Sweep, row.Value, row.Elapsed.Round(time.Millisecond)))
		}
	}
	return rows, nil
}
