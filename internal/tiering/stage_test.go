package tiering_test

// A core stage stacked on the memory hierarchy. These live outside package
// tiering because core imports it (its snapshot carries tiering.Stats).

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// manifestOf lists names, each size bytes, as a dataset manifest.
func manifestOf(names []string, size int64) *dataset.Manifest {
	samples := make([]dataset.Sample, len(names))
	for i, n := range names {
		samples[i] = dataset.Sample{Name: n, Size: size}
	}
	return dataset.MustNew(samples)
}

func TestPrefetcherOverTieredBackend(t *testing.T) {
	// Composition: PRISMA's producers read through the tiered backend.
	// Epoch 1 pulls from the slow tier and promotes; epoch 2's prefetch
	// runs at fast-tier speed — the two optimization objects stack.
	tiering.RunSim(t, func(env conc.Env) {
		b, names := tiering.TieredFixture(env, tiering.Config{FastCapacity: 1 << 30, PromoteAfter: 1}, 60, 100_000)
		st, err := core.NewStage(env, b, manifestOf(names, 100_000), core.StageConfig{
			InitialProducers: 2, MaxProducers: 8,
			InitialBufferCapacity: 16, MaxBufferCapacity: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		defer st.Close()

		epoch := func() time.Duration {
			start := env.Now()
			if err := st.SubmitPlan(names); err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
					t.Fatal(err)
				}
			}
			return env.Now() - start
		}
		first := epoch()
		second := epoch()
		if second*3 > first {
			t.Fatalf("epoch 2 (%v) not ≪ epoch 1 (%v) despite promotion", second, first)
		}
		stats := b.Stats()
		if stats.Promotions != 60 {
			t.Fatalf("promotions = %d, want 60", stats.Promotions)
		}
		if stats.FastHits != 60 {
			t.Fatalf("fast hits = %d, want 60 (all of epoch 2)", stats.FastHits)
		}
	})
}

// TestTwoJobsSharedDataset is the §VII scenario the shared cache exists for:
// two PRISMA-backed jobs train over the same dataset through one raw
// hierarchy that holds it; 400 logical reads cost each file one device read.
func TestTwoJobsSharedDataset(t *testing.T) {
	const files = 200
	s := sim.New()
	env := conc.NewSimEnv(s)
	var devReads int64
	s.Spawn("jobs", func(*sim.Process) {
		b, dev, names := tiering.DeviceFixture(env, tiering.Config{FastCapacity: 1 << 30, PromoteAfter: 1}, files, 100_000)
		man := manifestOf(names, 100_000)
		mkStage := func() *core.Stage {
			st, err := core.NewStage(env, b, man, core.StageConfig{
				InitialProducers: 2, MaxProducers: 8,
				InitialBufferCapacity: 16, MaxBufferCapacity: 64,
			})
			if err != nil {
				panic(err)
			}
			st.Start()
			return st
		}
		stA, stB := mkStage(), mkStage()
		wg := env.NewWaitGroup()
		wg.Add(2)
		runJob := func(st *core.Stage, seed int64) {
			defer wg.Done()
			plan := man.EpochFileList(seed, 0)
			if err := st.SubmitPlan(plan); err != nil {
				t.Error(err)
				return
			}
			for _, n := range plan {
				if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
					t.Error(err)
					return
				}
			}
		}
		env.Go("jobA", func() { runJob(stA, 1) })
		env.Go("jobB", func() { runJob(stB, 2) })
		wg.Wait()
		stA.Close()
		stB.Close()
		devReads = dev.Stats().Reads
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if devReads != files {
		t.Fatalf("device reads = %d, want %d (each file fetched once)", devReads, files)
	}
}
