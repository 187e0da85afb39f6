package prisma

// One testing.B benchmark per paper table/figure plus microbenchmarks of
// the data-plane primitives. Figure benchmarks execute the full simulated
// training run per iteration; the wall time testing.B reports is simulator
// throughput, while the paper-relevant quantity — the simulated training
// time extrapolated to full ImageNet scale — is attached as the custom
// metric "paper-sec/run" (plus figure-specific metrics such as
// "max-threads"). prisma-bench prints the corresponding tables.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/experiments"
	"github.com/dsrhaslab/prisma-go/internal/fairness"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// benchCal is the calibration used by figure benchmarks: single run at
// 1/512 scale (shapes preserved, ≈0.1-1 s of wall time per iteration).
func benchCal() experiments.Calibration {
	cal := experiments.Default()
	cal.Scale = 1.0 / 512
	cal.Runs = 1
	return cal
}

// BenchmarkFig2 regenerates every cell of Figure 2: average training time
// of {LeNet, AlexNet, ResNet-50} × batch {64, 128, 256} × {TF baseline,
// TF optimized, PRISMA}.
func BenchmarkFig2(b *testing.B) {
	cal := benchCal()
	for _, model := range train.Models() {
		for _, batch := range experiments.BatchSizes() {
			for _, setup := range experiments.TFSetups() {
				name := fmt.Sprintf("%s/b%d/%s", model.Name, batch, setup)
				b.Run(name, func(b *testing.B) {
					var last time.Duration
					for i := 0; i < b.N; i++ {
						m, err := experiments.RunTF(cal, model, batch, setup, cal.Seed+int64(i))
						if err != nil {
							b.Fatal(err)
						}
						last = m.Elapsed
					}
					b.ReportMetric(cal.PaperScale(last).Seconds(), "paper-sec/run")
				})
			}
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: the concurrent-reader-thread
// distribution of TF optimized vs PRISMA per model at batch 256.
func BenchmarkFig3(b *testing.B) {
	cal := benchCal()
	for _, model := range train.Models() {
		for _, setup := range []string{"tf-optimized", "prisma"} {
			name := fmt.Sprintf("%s/%s", model.Name, setup)
			b.Run(name, func(b *testing.B) {
				var maxThreads int
				for i := 0; i < b.N; i++ {
					m, err := experiments.RunTF(cal, model, 256, setup, cal.Seed+int64(i))
					if err != nil {
						b.Fatal(err)
					}
					dist := make(map[int]time.Duration, len(m.Readers))
					for k, v := range m.Readers {
						if k > 0 {
							dist[k] = v
						}
					}
					maxThreads = metrics.MaxValue(dist)
				}
				b.ReportMetric(float64(maxThreads), "max-threads")
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: PyTorch with 0-16 workers vs PRISMA
// for LeNet and AlexNet at batch 256.
func BenchmarkFig4(b *testing.B) {
	cal := benchCal()
	for _, model := range []train.Model{train.LeNet(), train.AlexNet()} {
		for _, workers := range experiments.WorkerCounts() {
			for _, setup := range []string{"pytorch", "prisma"} {
				name := fmt.Sprintf("%s/w%d/%s", model.Name, workers, setup)
				b.Run(name, func(b *testing.B) {
					var last time.Duration
					for i := 0; i < b.N; i++ {
						m, err := experiments.RunTorch(cal, model, 256, workers, setup, cal.Seed+int64(i))
						if err != nil {
							b.Fatal(err)
						}
						last = m.Elapsed
					}
					b.ReportMetric(cal.PaperScale(last).Seconds(), "paper-sec/run")
				})
			}
		}
	}
}

// BenchmarkAblationStaticT contrasts auto-tuning against pinned producer
// counts (LeNet, batch 256).
func BenchmarkAblationStaticT(b *testing.B) {
	cal := benchCal()
	for _, tval := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("static-t%d", tval), func(b *testing.B) {
			var rows []experiments.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.RunAblationStaticT(cal, []int{tval}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cal.PaperScale(rows[0].Elapsed).Seconds(), "paper-sec/run")
		})
	}
}

// BenchmarkAblationAccessCost sweeps the serialized buffer/IPC access cost
// (the §V-B synchronization bottleneck).
func BenchmarkAblationAccessCost(b *testing.B) {
	cal := benchCal()
	for _, cost := range []time.Duration{0, 55 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(cost.String(), func(b *testing.B) {
			var rows []experiments.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.RunAblationAccessCost(cal, []time.Duration{cost}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cal.PaperScale(rows[0].Elapsed).Seconds(), "paper-sec/run")
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the primitives behind the figures.

// BenchmarkBufferPutTake measures the real-mode evict-on-read buffer.
func BenchmarkBufferPutTake(b *testing.B) {
	env := conc.NewReal()
	buf := core.NewBuffer(env, 64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := core.PlanPos{Index: i & 1023}
		if _, err := buf.Put(core.Item{PlanPos: pos}); err != nil {
			b.Fatal(err)
		}
		if _, err := buf.Take(pos, core.TakeOptions{}); err != nil {
			b.Fatal("take failed")
		}
	}
}

// BenchmarkBufferShardedContended measures aggregate Put+Take throughput
// of the sharded buffer under the §V-B contention shape: 8 paired
// producer/consumer couples with a serialized per-access cost. K=1 is the
// paper's single shared buffer (every access behind one lock); K=8 lets
// couples on different shards overlap their access costs.
func BenchmarkBufferShardedContended(b *testing.B) {
	const couples = 8
	accessCost := 5 * time.Microsecond
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("K%d", shards), func(b *testing.B) {
			env := conc.NewReal()
			buf := core.NewShardedBuffer(env, couples*4, accessCost, shards)
			defer buf.Close()
			per := b.N/couples + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < couples; c++ {
				c := c
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						pos := core.PlanPos{Index: i*couples + c}
						if _, err := buf.Put(core.Item{PlanPos: pos, Size: 1}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := buf.Take(core.PlanPos{Index: i*couples + c}, core.TakeOptions{}); err != nil {
							b.Error("take failed")
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(2*couples*per)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkQueue measures the generic blocking queue in real mode.
func BenchmarkQueue(b *testing.B) {
	env := conc.NewReal()
	q := conc.NewQueue[int](env, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Put(i)
		if _, ok := q.Get(); !ok {
			b.Fatal("get failed")
		}
	}
}

// BenchmarkSimEngine measures raw event throughput of the discrete-event
// engine (events/s is the figure benchmarks' budget currency).
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	n := b.N
	s.Spawn("spinner", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeviceModel measures the analytic device under concurrent
// simulated readers.
func BenchmarkDeviceModel(b *testing.B) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	n := b.N
	s.Spawn("driver", func(*sim.Process) {
		dev, err := storage.NewDevice(env, storage.P4600())
		if err != nil {
			b.Fatal(err)
		}
		wg := env.NewWaitGroup()
		wg.Add(4)
		for w := 0; w < 4; w++ {
			env.Go(fmt.Sprintf("r%d", w), func() {
				defer wg.Done()
				for i := 0; i < n/4+1; i++ {
					dev.Read(113_000)
				}
			})
		}
		wg.Wait()
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAutotunerDecide measures one control decision.
func BenchmarkAutotunerDecide(b *testing.B) {
	a := control.NewAutotuner()
	pol := control.DefaultPolicy()
	prev := core.StageStats{Now: 0, QueueLen: 100}
	cur := core.StageStats{Now: time.Second, QueueLen: 100}
	cur.Buffer.ConsumerWait = 100 * time.Millisecond
	cur.Buffer.Takes = 1000
	tun := control.Tuning{Producers: 4, BufferCapacity: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tun = a.Decide(prev, cur, tun, pol)
	}
}

// BenchmarkStageReadReal measures the full interception path over real
// files (prefetched, so reads come from memory).
func BenchmarkStageReadReal(b *testing.B) {
	dir := b.TempDir()
	const files = 256
	samples := make([]dataset.Sample, files)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%04d", i), Size: 4096}
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 1); err != nil {
		b.Fatal(err)
	}
	env := conc.NewReal()
	backend := storagetest.OpenDir(b, dir)
	pf, err := core.NewPrefetcher(env, backend, man, core.PrefetcherConfig{
		InitialProducers: 4, MaxProducers: 8, InitialBufferCapacity: 64, MaxBufferCapacity: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	stage := core.NewStage(env, backend, pf)
	pf.Start()
	defer stage.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := samples[i%files].Name
		if err := stage.SubmitPlan([]string{name}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := stage.Read(core.ReadRequest{Name: name}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPCRoundTrip measures one UDS read round trip (the per-request
// cost the §V-B bottleneck is made of).
func BenchmarkIPCRoundTrip(b *testing.B) {
	dir := b.TempDir()
	samples := []dataset.Sample{{Name: "f", Size: 4096}}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 1); err != nil {
		b.Fatal(err)
	}
	env := conc.NewReal()
	backend := storagetest.OpenDir(b, dir)
	pf, err := core.NewPrefetcher(env, backend, man, core.PrefetcherConfig{
		InitialProducers: 1, MaxProducers: 2, InitialBufferCapacity: 4, MaxBufferCapacity: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	stage := core.NewStage(env, backend, pf)
	pf.Start()
	defer stage.Close()

	sock := filepath.Join(b.TempDir(), "bench.sock")
	srv, err := ipc.Serve(sock, stage, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := ipc.Dial(sock)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read("f"); err != nil { // unplanned: bypass path
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordCodec measures the packed-format encode/decode pair on a
// typical ImageNet-sized payload.
func BenchmarkRecordCodec(b *testing.B) {
	payload := make([]byte, 113_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf bytes.Buffer
	w := recordio.NewWriter(&buf)
	if _, _, err := w.WriteRecord(payload); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := recordio.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedCacheHit measures the memory hierarchy's hit path as the
// shared cache alone builds it (raw residents).
func BenchmarkSharedCacheHit(b *testing.B) {
	env := conc.NewReal()
	man := dataset.MustNew([]dataset.Sample{{Name: "hot", Size: 4096}})
	// A real-env modeled device with zero latency: only cache overhead
	// remains measurable.
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: 0, BytesPerSecond: 1e18, Channels: 1})
	if err != nil {
		b.Fatal(err)
	}
	ch := foldOptions(b, &chain.Chain{Env: env, Backend: storage.NewModeledBackend(man, dev)}, Options{
		Tenancy:           TenancyOptions{Enable: true, SharedCacheBytes: 1 << 20},
		DisableResilience: true,
	})
	defer ch.Close()
	cache := ch.Backend
	if _, err := cache.Read(storage.Request{Name: "hot"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Read(storage.Request{Name: "hot"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenBucket measures the fairness throttle's uncontended cost.
func BenchmarkTokenBucket(b *testing.B) {
	env := conc.NewReal()
	bucket, err := fairness.NewTokenBucket(env, 1e12, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.Acquire(1)
	}
}

// BenchmarkDistribCluster measures one full 8-node coordinated training
// run in the simulator (the prisma-bench distrib row).
func BenchmarkDistribCluster(b *testing.B) {
	cfg := distrib.DataParallelConfig()
	cfg.Mode = distrib.ClusterCoordinated
	cfg.TrainFiles = 4000
	cfg.Epochs = 1
	var res distrib.ClusterResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = distrib.RunCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Makespan.Seconds(), "sim-makespan-sec")
}

// BenchmarkEpochShuffle measures plan generation for a 10k-file epoch.
func BenchmarkEpochShuffle(b *testing.B) {
	man, err := dataset.Synthetic("train", 10_000, 113_000, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = man.EpochFileList(7, i)
	}
}
