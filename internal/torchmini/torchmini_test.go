package torchmini

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
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

func fixtures(env conc.Env, nTrain, nVal int, lat time.Duration, channels int) (*dataset.Manifest, *dataset.Manifest, *storage.ModeledBackend) {
	ts := make([]dataset.Sample, nTrain)
	for i := range ts {
		ts[i] = dataset.Sample{Name: fmt.Sprintf("train/%04d", i), Size: 100_000}
	}
	vs := make([]dataset.Sample, nVal)
	for i := range vs {
		vs[i] = dataset.Sample{Name: fmt.Sprintf("val/%04d", i), Size: 100_000}
	}
	man := dataset.MustNew(append(append([]dataset.Sample{}, ts...), vs...))
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: lat, BytesPerSecond: 1e15, Channels: channels})
	if err != nil {
		panic(err)
	}
	return dataset.MustNew(ts), dataset.MustNew(vs), storage.NewModeledBackend(man, dev)
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

func cfg(workers, batch int) Config {
	return Config{Workers: workers, GlobalBatch: batch, PrefetchFactor: 2}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: -1, GlobalBatch: 4, PrefetchFactor: 2},
		{Workers: 2, GlobalBatch: 0, PrefetchFactor: 2},
		{Workers: 2, GlobalBatch: 4, PrefetchFactor: 0},
		{Workers: 0, GlobalBatch: 4, Costs: Costs{Preprocess: -1}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := cfg(0, 4).Validate(); err != nil {
		t.Errorf("workers=0 rejected: %v", err)
	}
}

func TestZeroWorkersIsSerial(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 16, 4, time.Millisecond, 8)
		dl, err := NewDataLoader(env, backend, trainMan, valMan, 7, cfg(0, 4))
		if err != nil {
			t.Fatal(err)
		}
		it, _ := dl.TrainIter(0)
		start := env.Now()
		if n := drain(t, it); n != 16 {
			t.Fatalf("drained %d, want 16", n)
		}
		if got := env.Now() - start; got != 16*time.Millisecond {
			t.Fatalf("elapsed %v, want 16ms (serial)", got)
		}
		dl.Close()
	})
}

func TestWorkersParallelize(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 64, 4, time.Millisecond, 8)
		dl, _ := NewDataLoader(env, backend, trainMan, valMan, 7, cfg(4, 8))
		it, _ := dl.TrainIter(0)
		start := env.Now()
		if n := drain(t, it); n != 64 {
			t.Fatalf("drained %d, want 64", n)
		}
		elapsed := env.Now() - start
		// 8 batches over 4 workers: each worker reads 2 batches × 8 samples
		// serially = 16ms; well under the 64ms serial bound.
		if elapsed > 20*time.Millisecond {
			t.Fatalf("elapsed %v, want ≈16ms with 4 workers", elapsed)
		}
		dl.Close()
	})
}

func TestBatchesDeliveredInOrderDespiteWorkerSkew(t *testing.T) {
	// Workers finish out of order (different file sizes), but the consumer
	// must still see batches in index order. We detect misordering through
	// the per-batch boundary: batch i's samples all arrive before batch
	// i+1's first sample.
	runSim(t, func(env conc.Env) {
		// Uneven sample sizes: batch 0 is huge (slow), batch 1 tiny.
		samples := []dataset.Sample{
			{Name: "t0", Size: 50_000_000}, {Name: "t1", Size: 50_000_000},
			{Name: "t2", Size: 1}, {Name: "t3", Size: 1},
		}
		man := dataset.MustNew(samples)
		dev, _ := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 8})
		backend := storage.NewModeledBackend(man, dev)
		// Identity "shuffle": single epoch list == manifest order is not
		// guaranteed, so read the iterator's own batch layout instead.
		dl, _ := NewDataLoader(env, backend, man, man, 7, cfg(2, 2))
		itRaw, _ := dl.TrainIter(0)
		it := itRaw.(*loaderIter)
		var consumedBatches []int
		for {
			before := it.nextBatch
			ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if it.nextBatch != before {
				consumedBatches = append(consumedBatches, it.nextBatch-1)
			}
		}
		for i, b := range consumedBatches {
			if b != i {
				t.Fatalf("batch order %v, want in-order", consumedBatches)
			}
		}
		dl.Close()
	})
}

func TestPrefetchFactorBoundsReadahead(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 200, 4, time.Millisecond, 8)
		c := cfg(2, 4) // capacity = 2 workers × 2 = 4 batches
		dl, _ := NewDataLoader(env, backend, trainMan, valMan, 7, c)
		itRaw, _ := dl.TrainIter(0)
		it := itRaw.(*loaderIter)
		// Let workers run ahead without consuming.
		env.Sleep(200 * time.Millisecond)
		if got := it.buf.Len(); got > 4+2 { // capacity + in-flight awaited overshoot
			t.Fatalf("readahead %d batches, want <= 6 (bounded)", got)
		}
		drain(t, itRaw)
		dl.Close()
	})
}

func TestWorkerErrorSurfacesAndReleasesWorkers(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("driver", func(*sim.Process) {
		trainMan, valMan, backend := fixtures(env, 40, 4, time.Millisecond, 8)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailName(trainMan.EpochFileList(7, 0)[5]) // inside batch 1
		dl, _ := NewDataLoader(env, faulty, trainMan, valMan, 7, cfg(2, 4))
		it, _ := dl.TrainIter(0)
		sawErr := false
		for i := 0; i < 40; i++ {
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
			t.Error("worker error never surfaced")
		}
		dl.Close()
	})
	// The error teardown must leave no worker parked forever (Run would
	// report a deadlock).
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
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

// prismaStage wires a stage over the backend, which serves the train and
// validation manifests' files.
func prismaStage(env conc.Env, backend storage.Backend, trainMan, valMan *dataset.Manifest, accessCost time.Duration) *core.Stage {
	pf, err := core.NewPrefetcher(env, backend, both(trainMan, valMan), core.PrefetcherConfig{
		InitialProducers: 4, MaxProducers: 16,
		InitialBufferCapacity: 32, MaxBufferCapacity: 256,
		BufferAccessCost: accessCost,
	})
	if err != nil {
		panic(err)
	}
	st := core.NewStage(env, backend, pf)
	pf.Start()
	return st
}

func TestPrismaLoaderBeatsNativeAtLowWorkers(t *testing.T) {
	// The Fig. 4 left side: with 0 workers, native PyTorch loads serially
	// while PRISMA's producers prefetched ahead.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var nativeT, prismaT time.Duration
	s.Spawn("driver", func(*sim.Process) {
		trainMan, valMan, backend := fixtures(env, 400, 4, time.Millisecond, 8)
		dl, _ := NewDataLoader(env, backend, trainMan, valMan, 7, cfg(0, 8))
		it, _ := dl.TrainIter(0)
		start := env.Now()
		drain(t, it)
		nativeT = env.Now() - start
		dl.Close()

		trainMan2, valMan2, backend2 := fixtures(env, 400, 4, time.Millisecond, 8)
		st := prismaStage(env, backend2, trainMan2, valMan2, 20*time.Microsecond)
		pl, _ := NewPrismaLoader(env, st, trainMan2, valMan2, 7, cfg(0, 8))
		pit, _ := pl.TrainIter(0)
		start = env.Now()
		drain(t, pit)
		prismaT = env.Now() - start
		pl.Close()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if prismaT*2 > nativeT {
		t.Fatalf("prisma %v not clearly faster than native 0-worker %v", prismaT, nativeT)
	}
}

func TestPrismaLoaderLosesAtHighWorkers(t *testing.T) {
	// The Fig. 4 right side: at 8 workers, native parallel loading beats
	// PRISMA's serialized buffer access.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var nativeT, prismaT time.Duration
	s.Spawn("driver", func(*sim.Process) {
		trainMan, valMan, backend := fixtures(env, 800, 4, time.Millisecond, 8)
		dl, _ := NewDataLoader(env, backend, trainMan, valMan, 7, cfg(8, 8))
		it, _ := dl.TrainIter(0)
		start := env.Now()
		drain(t, it)
		nativeT = env.Now() - start
		dl.Close()

		trainMan2, valMan2, backend2 := fixtures(env, 800, 4, time.Millisecond, 8)
		st := prismaStage(env, backend2, trainMan2, valMan2, 150*time.Microsecond) // heavy IPC serialization
		pl, _ := NewPrismaLoader(env, st, trainMan2, valMan2, 7, cfg(8, 8))
		pit, _ := pl.TrainIter(0)
		start = env.Now()
		drain(t, pit)
		prismaT = env.Now() - start
		pl.Close()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if prismaT <= nativeT {
		t.Fatalf("prisma %v not slower than native 8-worker %v (sync bottleneck missing)", prismaT, nativeT)
	}
}

func TestPrismaLoaderValBypasses(t *testing.T) {
	runSim(t, func(env conc.Env) {
		trainMan, valMan, backend := fixtures(env, 16, 8, time.Millisecond, 8)
		st := prismaStage(env, backend, trainMan, valMan, 0)
		pl, _ := NewPrismaLoader(env, st, trainMan, valMan, 7, cfg(2, 4))
		it, _ := pl.TrainIter(0)
		drain(t, it)
		vit, _ := pl.ValIter(0)
		if n := drain(t, vit); n != 8 {
			t.Fatalf("val drained %d, want 8", n)
		}
		stats := st.Stats()
		if stats.Hits != 16 || stats.Bypasses != 8 {
			t.Fatalf("hits/bypasses = %d/%d, want 16/8", stats.Hits, stats.Bypasses)
		}
		pl.Close()
		st.Close()
	})
}

func TestEndToEndTorchTraining(t *testing.T) {
	runSim(t, func(env conc.Env) {
		model := train.Model{Name: "tiny", ComputePerImage: 10 * time.Microsecond, StepOverhead: 100 * time.Microsecond, ValComputeFactor: 0.5}
		tcfg := train.Config{Model: model, BatchPerGPU: 2, GPUs: 4, Epochs: 2, Validation: true}
		trainMan, valMan, backend := fixtures(env, 64, 8, time.Millisecond, 8)
		dl, _ := NewDataLoader(env, backend, trainMan, valMan, 7, cfg(2, 8))
		gpus := train.NewGPUCluster(env, 4)
		res, err := train.Run(env, tcfg, dl, gpus)
		if err != nil {
			t.Fatal(err)
		}
		if res.TrainSamples != 128 || res.ValSamples != 16 {
			t.Fatalf("samples = %d/%d, want 128/16", res.TrainSamples, res.ValSamples)
		}
		dl.Close()
	})
}

func TestPrismaLoaderIPCEndToEnd(t *testing.T) {
	// The literal §IV deployment: real UNIX sockets, one client per
	// worker, plan submitted over the wire, reads served from the remote
	// stage's buffer — end-to-end under the real-time environment.
	dir := t.TempDir()
	samples := make([]dataset.Sample, 32)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("train/%03d.jpg", i), Size: 2048}
	}
	vs := []dataset.Sample{{Name: "val/000.jpg", Size: 2048}}
	all := dataset.MustNew(append(append([]dataset.Sample{}, samples...), vs...))
	if err := dataset.Generate(dir, all, 3); err != nil {
		t.Fatal(err)
	}
	trainMan := dataset.MustNew(samples)
	valMan := dataset.MustNew(vs)

	env := conc.NewReal()
	backend := storagetest.OpenDir(t, dir)
	pf, err := core.NewPrefetcher(env, backend, all, core.PrefetcherConfig{
		InitialProducers: 2, MaxProducers: 8, InitialBufferCapacity: 16, MaxBufferCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	stage := core.NewStage(env, backend, pf)
	pf.Start()
	defer stage.Close()

	sock := t.TempDir() + "/loader.sock"
	srv, err := ipc.Serve(sock, stage, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	planner, err := ipc.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer planner.Close()
	loader, err := NewPrismaLoaderIPC(env, func() (*ipc.Client, error) { return ipc.Dial(sock) },
		planner, trainMan, valMan, 7, cfg(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer loader.Close()

	it, err := loader.TrainIter(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		n := 0
		for {
			ok, err := it.Next()
			if err != nil {
				t.Errorf("Next: %v", err)
				break
			}
			if !ok {
				break
			}
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n != 32 {
			t.Fatalf("drained %d, want 32", n)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("IPC loader hung")
	}
	// Every plan entry is one buffer hit. A worker's batch of consecutive
	// entries looks like a unit stride to socket read-ahead until the batch
	// ends, so a few entries may have been pushed to the wrong worker and
	// read again, as bypasses, by the right one (DESIGN.md §19) — on top of
	// the 32 hits, never instead of them.
	trained := stage.Stats()
	if trained.Hits != 32 {
		t.Fatalf("remote hits = %d, want 32", trained.Hits)
	}
	if trained.Bypasses > trained.ReadAheadSamples {
		t.Fatalf("%d bypasses during training, but only %d samples were pushed ahead", trained.Bypasses, trained.ReadAheadSamples)
	}
	// Validation bypasses over the same sockets.
	vit, err := loader.ValIter(0)
	if err != nil {
		t.Fatal(err)
	}
	vdone := make(chan struct{})
	go func() {
		defer close(vdone)
		for {
			ok, err := vit.Next()
			if err != nil || !ok {
				return
			}
		}
	}()
	select {
	case <-vdone:
	case <-time.After(20 * time.Second):
		t.Fatal("val iteration hung")
	}
	if got := stage.Stats().Bypasses - trained.Bypasses; got != 1 {
		t.Fatalf("validation added %d bypasses, want 1", got)
	}
}

func TestPrismaLoaderIPCDialFailureCleansUp(t *testing.T) {
	env := conc.NewReal()
	trainMan := dataset.MustNew([]dataset.Sample{{Name: "a", Size: 1}})
	calls := 0
	_, err := NewPrismaLoaderIPC(env, func() (*ipc.Client, error) {
		calls++
		return nil, fmt.Errorf("refused")
	}, nil, trainMan, trainMan, 1, cfg(4, 8))
	if err == nil {
		t.Fatal("dial failure swallowed")
	}
	if calls != 1 {
		t.Fatalf("dial attempts = %d, want fail-fast 1", calls)
	}
}

func TestPrismaFlatAcrossWorkerCounts(t *testing.T) {
	// "PRISMA performs similarly for different combinations of PyTorch
	// workers" (§V-B): spread across 0/2/8 workers should be small.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var times []time.Duration
	s.Spawn("driver", func(*sim.Process) {
		for _, w := range []int{0, 2, 8} {
			trainMan, valMan, backend := fixtures(env, 400, 4, time.Millisecond, 8)
			st := prismaStage(env, backend, trainMan, valMan, 50*time.Microsecond)
			pl, _ := NewPrismaLoader(env, st, trainMan, valMan, 7, cfg(w, 8))
			it, _ := pl.TrainIter(0)
			start := env.Now()
			drain(t, it)
			times = append(times, env.Now()-start)
			pl.Close()
			st.Close()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	min, max := times[0], times[0]
	for _, d := range times {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if float64(max) > 1.6*float64(min) {
		t.Fatalf("PRISMA times %v vary too much across worker counts", times)
	}
}
