package tfmini

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

func runSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// fixtures builds train/val manifests and a modeled backend.
func fixtures(env conc.Env, nTrain, nVal int, lat time.Duration, channels int) (*dataset.Manifest, *dataset.Manifest, *storage.ModeledBackend) {
	ts := make([]dataset.Sample, nTrain)
	for i := range ts {
		ts[i] = dataset.Sample{Name: fmt.Sprintf("train/%04d", i), Size: 100_000}
	}
	vs := make([]dataset.Sample, nVal)
	for i := range vs {
		vs[i] = dataset.Sample{Name: fmt.Sprintf("val/%04d", i), Size: 100_000}
	}
	all := append(append([]dataset.Sample{}, ts...), vs...)
	man := dataset.MustNew(all)
	trainMan := dataset.MustNew(ts)
	valMan := dataset.MustNew(vs)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: lat, BytesPerSecond: 1e15, Channels: channels})
	if err != nil {
		panic(err)
	}
	return trainMan, valMan, storage.NewModeledBackend(man, dev)
}

func drain(t *testing.T, it train.Iterator) int {
	t.Helper()
	n := 0
	for {
		ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return n
		}
		n++
	}
}

func TestBaselineSerialTiming(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 20, 5, time.Millisecond, 8)
		p, err := NewBaseline(env, backend, trainMan, valMan, 7, Costs{Preprocess: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		it, _ := p.TrainIter(0)
		start := env.Now()
		if n := drain(t, it); n != 20 {
			t.Fatalf("drained %d, want 20", n)
		}
		// Serial: 20 × (1ms + 0.5ms) = 30ms despite 8 device channels.
		if got := env.Now() - start; got != 30*time.Millisecond {
			t.Fatalf("elapsed %v, want 30ms (single-threaded)", got)
		}
		if max := metrics.MaxValue(p.ActiveReaderDistribution()); max != 1 {
			t.Fatalf("max concurrent readers = %d, want 1", max)
		}
		p.Close()
	})
}

func TestBaselineValIterCoversValSet(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 4, 6, time.Millisecond, 2)
		p, _ := NewBaseline(env, backend, trainMan, valMan, 7, Costs{})
		it, _ := p.ValIter(0)
		if n := drain(t, it); n != 6 {
			t.Fatalf("val drained %d, want 6", n)
		}
	})
}

func TestBaselineEpochOrderIsShuffled(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 50, 1, time.Millisecond, 1)
		p, _ := NewBaseline(env, backend, trainMan, valMan, 7, Costs{})
		it0, _ := p.TrainIter(0)
		it1, _ := p.TrainIter(1)
		a := it0.(*serialIter).names
		b := it1.(*serialIter).names
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("epochs 0 and 1 use identical order")
		}
	})
}

func TestOptimizedParallelTiming(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 80, 5, time.Millisecond, 8)
		p, err := NewOptimized(env, backend, trainMan, valMan, 7, Costs{}, OptimizedConfig{
			ReaderThreads: 30, InitialBuffer: 2, MaxBuffer: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		it, _ := p.TrainIter(0)
		start := env.Now()
		if n := drain(t, it); n != 80 {
			t.Fatalf("drained %d, want 80", n)
		}
		elapsed := env.Now() - start
		// 80 reads over 8 channels at 1ms ≈ 10ms; far below the 80ms serial.
		if elapsed > 25*time.Millisecond {
			t.Fatalf("elapsed %v, want ≈10ms (parallel)", elapsed)
		}
		if p.BufferGrowths() == 0 {
			t.Fatal("intrinsic autotuner never grew the buffer")
		}
		p.Close()
	})
}

func TestOptimizedOverallocatesThreads(t *testing.T) {
	// The Fig. 3 behaviour: the TF pool pushes far more concurrent reads
	// than the device can service.
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 200, 5, time.Millisecond, 8)
		p, _ := NewOptimized(env, backend, trainMan, valMan, 7, Costs{}, OptimizedConfig{
			ReaderThreads: 30, InitialBuffer: 2, MaxBuffer: 256,
		})
		it, _ := p.TrainIter(0)
		drain(t, it)
		p.Close()
		if max := metrics.MaxValue(p.ActiveReaderDistribution()); max < 20 {
			t.Fatalf("max concurrent readers = %d, want ≈30 (overallocation)", max)
		}
	})
}

func TestOptimizedValPrefetched(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 5, 64, time.Millisecond, 8)
		p, _ := NewOptimized(env, backend, trainMan, valMan, 7, Costs{}, DefaultOptimizedConfig())
		it, _ := p.ValIter(0)
		start := env.Now()
		if n := drain(t, it); n != 64 {
			t.Fatalf("val drained %d, want 64", n)
		}
		if got := env.Now() - start; got > 30*time.Millisecond {
			t.Fatalf("val elapsed %v, want parallel (≈8ms)", got)
		}
		p.Close()
	})
}

func TestOptimizedPropagatesReaderError(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 10, 2, time.Millisecond, 4)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailEvery(3)
		p, _ := NewOptimized(env, faulty, trainMan, valMan, 7, Costs{}, OptimizedConfig{
			ReaderThreads: 2, InitialBuffer: 2, MaxBuffer: 8,
		})
		it, _ := p.TrainIter(0)
		sawErr := false
		for i := 0; i < 10; i++ {
			ok, err := it.Next()
			if err != nil {
				sawErr = true
				break
			}
			if !ok {
				break
			}
		}
		if !sawErr {
			t.Fatal("reader error never surfaced to the consumer")
		}
		p.Close()
	})
}

// both lists a train and a validation manifest's samples together, as one
// backend serves them.
func both(train, val *dataset.Manifest) *dataset.Manifest {
	var all []dataset.Sample
	for _, m := range []*dataset.Manifest{train, val} {
		for i := 0; i < m.Len(); i++ {
			all = append(all, m.Sample(i))
		}
	}
	return dataset.MustNew(all)
}

// prismaFixture wires a stage over the backend, which serves the train and
// validation manifests' files.
func prismaFixture(env conc.Env, backend storage.Backend, trainMan, valMan *dataset.Manifest, producers int) *core.Stage {
	st, err := core.NewStage(env, backend, both(trainMan, valMan), core.StageConfig{
		InitialProducers: producers, MaxProducers: 32,
		InitialBufferCapacity: 16, MaxBufferCapacity: 512,
	})
	if err != nil {
		panic(err)
	}
	st.Start()
	return st
}

func TestPrismaTrainHitsValBypasses(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 30, 10, time.Millisecond, 8)
		st := prismaFixture(env, backend, trainMan, valMan, 4)
		p, err := NewPrisma(env, st, trainMan, valMan, 7, Costs{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, _ := p.TrainIter(0)
		if n := drain(t, it); n != 30 {
			t.Fatalf("train drained %d, want 30", n)
		}
		vit, _ := p.ValIter(0)
		if n := drain(t, vit); n != 10 {
			t.Fatalf("val drained %d, want 10", n)
		}
		stats := st.Stats()
		if stats.Hits != 30 {
			t.Errorf("Hits = %d, want 30 (train via buffer)", stats.Hits)
		}
		if stats.Bypasses != 10 {
			t.Errorf("Bypasses = %d, want 10 (validation unplanned)", stats.Bypasses)
		}
		st.Close()
	})
}

func TestPrismaValidationPrefetchExtension(t *testing.T) {
	// §V-A: the prototype bypasses validation files; the extension plans
	// them too, so validation reads hit the buffer and run in parallel.
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 10, 40, time.Millisecond, 8)
		stBypass := prismaFixture(env, backend, trainMan, valMan, 4)
		pOff, _ := NewPrisma(env, stBypass, trainMan, valMan, 7, Costs{}, 0)
		vit, _ := pOff.ValIter(0)
		start := env.Now()
		drain(t, vit)
		bypassTime := env.Now() - start
		if stBypass.Stats().Bypasses != 40 {
			t.Fatalf("bypasses = %d, want 40 without the extension", stBypass.Stats().Bypasses)
		}
		stBypass.Close()

		trainMan2, valMan2, backend2 := fixtures(env, 10, 40, time.Millisecond, 8)
		stPlan := prismaFixture(env, backend2, trainMan2, valMan2, 4)
		pOn, _ := NewPrisma(env, stPlan, trainMan2, valMan2, 7, Costs{}, 0)
		pOn.SetPrefetchValidation(true)
		vit2, _ := pOn.ValIter(0)
		start = env.Now()
		drain(t, vit2)
		planTime := env.Now() - start
		if stPlan.Stats().Hits != 40 {
			t.Fatalf("hits = %d, want 40 with the extension", stPlan.Stats().Hits)
		}
		stPlan.Close()

		if planTime*2 > bypassTime {
			t.Fatalf("prefetched validation (%v) not clearly faster than bypass (%v)", planTime, bypassTime)
		}
	})
}

func TestPrismaFasterThanBaselineIOBound(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 200, 5, time.Millisecond, 8)
		base, _ := NewBaseline(env, backend, trainMan, valMan, 7, Costs{})
		bit, _ := base.TrainIter(0)
		baseStart := env.Now()
		drain(t, bit)
		baseElapsed := env.Now() - baseStart

		st := prismaFixture(env, backend, trainMan, valMan, 4)
		pp, _ := NewPrisma(env, st, trainMan, valMan, 7, Costs{}, 0)
		pit, _ := pp.TrainIter(1)
		pStart := env.Now()
		drain(t, pit)
		pElapsed := env.Now() - pStart
		st.Close()

		if pElapsed*2 > baseElapsed {
			t.Fatalf("prisma %v not clearly faster than baseline %v", pElapsed, baseElapsed)
		}
	})
}

func TestPrismaReaderConcurrencyBounded(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 100, 5, time.Millisecond, 8)
		readers := storage.NewReaderCount(env, backend)
		st, err := core.NewStage(env, backend, both(trainMan, valMan), core.StageConfig{
			InitialProducers: 4, MaxProducers: 32,
			InitialBufferCapacity: 16, MaxBufferCapacity: 512,
			ProducerBackend: readers,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		p, _ := NewPrisma(env, st, trainMan, valMan, 7, Costs{}, 0)
		it, _ := p.TrainIter(0)
		drain(t, it)
		if max := metrics.MaxValue(readers.Distribution()); max < 1 || max > 4 {
			t.Fatalf("max concurrent readers = %d, want 1..4 (t=4)", max)
		}
		st.Close()
	})
}

func TestEndToEndTrainRunComparison(t *testing.T) {
	// Full train.Run over both setups for an I/O-bound model: the shape of
	// paper Fig. 2's LeNet bars.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var baseT, prismaT time.Duration
	s.Spawn("driver", func(*sim.Process) {
		model := train.Model{Name: "tiny", ComputePerImage: time.Microsecond, StepOverhead: 100 * time.Microsecond, ValComputeFactor: 0.5}
		cfg := train.Config{Model: model, BatchPerGPU: 8, GPUs: 4, Epochs: 2, Validation: true}

		trainMan, valMan, backend := fixtures(env, 320, 32, time.Millisecond, 8)
		gpus := train.NewGPUCluster(env, 4)
		base, _ := NewBaseline(env, backend, trainMan, valMan, 7, Costs{})
		res, err := train.Run(env, cfg, base, gpus)
		if err != nil {
			t.Error(err)
			return
		}
		baseT = res.Elapsed

		trainMan2, valMan2, backend2 := fixtures(env, 320, 32, time.Millisecond, 8)
		st := prismaFixture(env, backend2, trainMan2, valMan2, 4)
		pp, _ := NewPrisma(env, st, trainMan2, valMan2, 7, Costs{}, 0)
		gpus2 := train.NewGPUCluster(env, 4)
		res2, err := train.Run(env, cfg, pp, gpus2)
		if err != nil {
			t.Error(err)
			return
		}
		prismaT = res2.Elapsed
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if prismaT >= baseT {
		t.Fatalf("prisma %v not faster than baseline %v", prismaT, baseT)
	}
	reduction := 1 - float64(prismaT)/float64(baseT)
	if reduction < 0.3 {
		t.Fatalf("reduction %.0f%%, want > 30%% for I/O-bound model", reduction*100)
	}
}

func TestRealModeEndToEnd(t *testing.T) {
	// The whole TF-side stack on real files under the real-time
	// environment: baseline and PRISMA both complete a short training run
	// with correct sample counts and byte-faithful reads.
	dir := t.TempDir()
	ts := make([]dataset.Sample, 24)
	for i := range ts {
		ts[i] = dataset.Sample{Name: fmt.Sprintf("train/%03d.jpg", i), Size: 2048}
	}
	vs := []dataset.Sample{{Name: "val/000.jpg", Size: 2048}, {Name: "val/001.jpg", Size: 2048}}
	all := dataset.MustNew(append(append([]dataset.Sample{}, ts...), vs...))
	if err := dataset.Generate(dir, all, 5); err != nil {
		t.Fatal(err)
	}
	trainMan, valMan := dataset.MustNew(ts), dataset.MustNew(vs)
	env := conc.NewReal()
	backend := storagetest.OpenDir(t, dir)

	model := train.Model{Name: "tiny", ComputePerImage: time.Microsecond, StepOverhead: 10 * time.Microsecond, ValComputeFactor: 0.5}
	cfg := train.Config{Model: model, BatchPerGPU: 2, GPUs: 4, Epochs: 2, Validation: true}

	run := func(p train.Pipeline) train.Result {
		t.Helper()
		gpus := train.NewGPUCluster(env, 4)
		done := make(chan train.Result, 1)
		errc := make(chan error, 1)
		env.Go("trainer", func() {
			res, err := train.Run(env, cfg, p, gpus)
			if err != nil {
				errc <- err
				return
			}
			done <- res
		})
		select {
		case res := <-done:
			return res
		case err := <-errc:
			t.Fatal(err)
		case <-time.After(30 * time.Second):
			t.Fatal("real-mode training hung")
		}
		panic("unreachable")
	}

	base, err := NewBaseline(env, backend, trainMan, valMan, 7, Costs{})
	if err != nil {
		t.Fatal(err)
	}
	res := run(base)
	if res.TrainSamples != 48 || res.ValSamples != 4 {
		t.Fatalf("baseline samples = %d/%d, want 48/4", res.TrainSamples, res.ValSamples)
	}

	st := prismaFixture(env, backend, trainMan, valMan, 2)
	defer st.Close()
	pp, err := NewPrisma(env, st, trainMan, valMan, 7, Costs{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res = run(pp)
	if res.TrainSamples != 48 || res.ValSamples != 4 {
		t.Fatalf("prisma samples = %d/%d, want 48/4", res.TrainSamples, res.ValSamples)
	}
	if stats := st.Stats(); stats.Hits != 48 || stats.Errors != 0 {
		t.Fatalf("stage stats = %+v, want 48 hits", stats)
	}
}

func TestCostsValidation(t *testing.T) {
	if (Costs{Preprocess: -1}).Validate() == nil {
		t.Error("negative preprocess accepted")
	}
	if err := DefaultOptimizedConfig().Validate(); err != nil {
		t.Errorf("default optimized config: %v", err)
	}
	bad := []OptimizedConfig{
		{ReaderThreads: 0, InitialBuffer: 1, MaxBuffer: 2},
		{ReaderThreads: 1, InitialBuffer: 0, MaxBuffer: 2},
		{ReaderThreads: 1, InitialBuffer: 4, MaxBuffer: 2},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad optimized config %d accepted", i)
		}
	}
	env := conc.NewReal()
	if _, err := NewPrisma(env, nil, nil, nil, 0, Costs{}, -time.Second); err == nil {
		t.Error("negative interception cost accepted")
	}
}
