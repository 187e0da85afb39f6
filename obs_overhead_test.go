package prisma

// The tracing subsystem's hot-path contract: with sampling off, the
// per-operation cost of carrying span contexts through the buffer is noise
// next to the serialized access cost — the data plane pays for observability
// only when it is on. TestTracingOverheadGate enforces the ≤5% budget on the
// same contended workload BenchmarkBufferShardedContended measures;
// BenchmarkBufferShardedContendedTraced reports the with-sampling numbers
// for comparison.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// runContendedBuffer drives the §V-B contention shape (8 producer/consumer
// couples, serialized 5µs access cost, 8 shards) through a buffer with the
// given tracer attached, moving perCouple samples per couple. Returns the
// wall-clock makespan.
func runContendedBuffer(tracer *obs.Tracer, perCouple int) time.Duration {
	const couples = 8
	env := conc.NewReal()
	buf := core.NewShardedBuffer(env, couples*4, 5*time.Microsecond, 8)
	buf.SetTracer(tracer)
	defer buf.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < couples; c++ {
		c := c
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perCouple; i++ {
				name := fmt.Sprintf("c%d/s%d", c, i)
				pos := core.PlanPos{Index: i*couples + c}
				if _, err := buf.Put(core.Item{Name: name, PlanPos: pos, Size: 1, Ctx: tracer.StartTrace()}); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perCouple; i++ {
				if _, err := buf.Take(core.PlanPos{Index: i*couples + c}, core.TakeOptions{Ctx: tracer.StartTrace()}); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestTracingOverheadGate: a tracer attached with sampling 0 must stay
// within 5% of the tracer-free makespan on the contended buffer workload
// (best of 5 runs each, the workload dominated by the serialized access
// cost). This is the CI gate for the sampled-off hot path.
func TestTracingOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped with -short")
	}
	const (
		perCouple = 600
		rounds    = 5
	)
	// Warm up both paths once (scheduler, allocator).
	runContendedBuffer(nil, 100)

	// Pair each traced run with an adjacent plain run and take the best
	// per-round ratio: adjacent runs see the same machine load (other test
	// binaries, GC), and load only ever inflates a run, so the minimum
	// paired ratio is the robust estimate of the true multiplicative
	// overhead.
	off := obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 0})
	ratio := float64(1 << 62)
	var plain, traced time.Duration
	for i := 0; i < rounds; i++ {
		p := runContendedBuffer(nil, perCouple)
		d := runContendedBuffer(off, perCouple)
		if r := float64(d) / float64(p); r < ratio {
			ratio, plain, traced = r, p, d
		}
	}
	t.Logf("plain %v, sampling-off %v, ratio %.4f", plain, traced, ratio)
	if ratio > 1.05 {
		t.Errorf("sampling-off tracing costs %.1f%% on the contended buffer (budget 5%%): plain %v, traced %v",
			(ratio-1)*100, plain, traced)
	}
}

// memBackend is a zero-latency in-memory backend so the serving-chain gate
// measures plumbing cost, not device time.
type memBackend struct{ payload []byte }

func (m memBackend) Read(req storage.Request) (storage.Response, error) {
	return storage.Response{Data: storage.Data{Name: req.Name, Size: int64(len(m.payload)), Bytes: m.payload}}, nil
}

// runServingChain drives perWorker unplanned tenant reads per worker through
// the full PR 6/7 serving chain — tenant admission gate with an SLO
// objective attached, the memory hierarchy — and returns the makespan.
func runServingChain(t *testing.T, tracer *obs.Tracer, perWorker int) time.Duration {
	t.Helper()
	const workers = 8
	env := conc.NewReal()
	ch := foldOptions(t, &chain.Chain{Env: env, Tracer: tracer, Backend: memBackend{payload: make([]byte, 4096)}}, Options{
		Tiering:           TieringOptions{Enable: true, CapacityBytes: 1 << 24},
		DisableResilience: true,
	})
	var names []string
	for w := 0; w < workers; w++ {
		for i := 0; i < 64; i++ {
			names = append(names, fmt.Sprintf("w%d/s%d", w, i))
		}
	}
	stage, err := core.NewStage(env, ch.Backend, testManifest(names, 4096), core.StageConfig{
		InitialProducers:      1,
		MaxProducers:          2,
		InitialBufferCapacity: 4,
		MaxBufferCapacity:     8,
		Tracer:                tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stage.Close()
	defer ch.Close()
	mgr, err := tenancy.New(env, tenancy.Config{Capacity: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Register(tenancy.Spec{Name: "job", SLO: &obs.SLOConfig{
		Quantile: 0.99, Threshold: time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	stage.SetTenantGate(mgr)
	stage.Start()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d/s%d", w, i%64)
				data, _, err := stage.Read(core.ReadRequest{Name: name, Tenant: "job"})
				if err != nil {
					t.Error(err)
					return
				}
				data.Release()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestServingChainOverheadGate is TestTracingOverheadGate for the serving
// path: with tenancy (SLO tracking included) and the memory hierarchy
// enabled, a sampling-0 tracer must stay within 5% of the
// tracer-free makespan. This guards the always-on counters added for
// SLO/attribution (throttle wait, cache wait, promote/decode time) and the
// dead-context plumbing through the whole chain.
func TestServingChainOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped with -short")
	}
	const (
		perWorker = 2000
		rounds    = 5
	)
	runServingChain(t, nil, 200) // warm up

	// Best paired ratio over interleaved rounds, for the same reason as
	// the buffer gate.
	off := obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 0})
	ratio := float64(1 << 62)
	var plain, traced time.Duration
	for i := 0; i < rounds; i++ {
		p := runServingChain(t, nil, perWorker)
		d := runServingChain(t, off, perWorker)
		if r := float64(d) / float64(p); r < ratio {
			ratio, plain, traced = r, p, d
		}
	}
	t.Logf("plain %v, sampling-off %v, ratio %.4f", plain, traced, ratio)
	if ratio > 1.05 {
		t.Errorf("sampling-off tracing costs %.1f%% on the serving chain (budget 5%%): plain %v, traced %v",
			(ratio-1)*100, plain, traced)
	}
}

// BenchmarkBufferShardedContendedTraced is BenchmarkBufferShardedContended
// with a tracer attached, at sampling 0 (hot path carries dead contexts) and
// 0.1 (1-in-10 lifecycles recorded) — the published overhead numbers.
func BenchmarkBufferShardedContendedTraced(b *testing.B) {
	const couples = 8
	for _, sampling := range []float64{0, 0.1} {
		b.Run(fmt.Sprintf("sampling%g", sampling), func(b *testing.B) {
			tracer := obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: sampling})
			per := b.N/couples + 1
			b.ResetTimer()
			runContendedBufferN(b, tracer, per)
		})
	}
}

// runContendedBufferN is the benchmark body: like runContendedBuffer but
// reporting ops/s through testing.B.
func runContendedBufferN(b *testing.B, tracer *obs.Tracer, perCouple int) {
	const couples = 8
	env := conc.NewReal()
	buf := core.NewShardedBuffer(env, couples*4, 5*time.Microsecond, 8)
	buf.SetTracer(tracer)
	defer buf.Close()
	var wg sync.WaitGroup
	for c := 0; c < couples; c++ {
		c := c
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perCouple; i++ {
				name := fmt.Sprintf("c%d/s%d", c, i)
				pos := core.PlanPos{Index: i*couples + c}
				if _, err := buf.Put(core.Item{Name: name, PlanPos: pos, Size: 1, Ctx: tracer.StartTrace()}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perCouple; i++ {
				if _, err := buf.Take(core.PlanPos{Index: i*couples + c}, core.TakeOptions{Ctx: tracer.StartTrace()}); err != nil {
					b.Error("take failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(2*couples*perCouple)/b.Elapsed().Seconds(), "ops/s")
}
