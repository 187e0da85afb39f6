package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestPooledSimEpochLeakAudit runs full training epochs in the virtual-time
// simulator with a debug-mode pool threaded through backend and stage, then
// audits the ledger: every lease handed out during the run must have been
// released by the time the epochs drain, and the audit must not be vacuous
// (the modeled backend serves synthetic pooled payloads, so Gets equals
// planned samples plus eviction-path discards).
func TestPooledSimEpochLeakAudit(t *testing.T) {
	const (
		nFiles = 48
		epochs = 3
	)
	s := sim.New()
	env := conc.NewSimEnv(s)
	pool := mempool.New(mempool.Config{Debug: true})
	var audited bool
	s.Spawn("driver", func(*sim.Process) {
		samples := make([]dataset.Sample, nFiles)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("lk%03d", i), Size: int64(8192 + 640*i)}
		}
		man := dataset.MustNew(samples)
		dev, err := storage.NewDevice(env, storage.DeviceSpec{
			BaseLatency:    300 * time.Microsecond,
			BytesPerSecond: 1e9,
			Channels:       4,
		})
		if err != nil {
			t.Error(err)
			return
		}
		backend := storage.NewModeledBackend(man, dev)
		backend.SetBufferPool(pool)
		pf, err := NewPrefetcher(env, backend, man, PrefetcherConfig{
			InitialProducers:      3,
			MaxProducers:          6,
			InitialBufferCapacity: 8,
			MaxBufferCapacity:     32,
		})
		if err != nil {
			t.Error(err)
			return
		}
		st := NewStage(env, backend, pf)
		st.SetBufferPool(pool)
		pf.Start()
		defer st.Close()

		for epoch := 0; epoch < epochs; epoch++ {
			plan := man.EpochFileList(7, epoch)
			if err := st.SubmitPlan(plan); err != nil {
				t.Error(err)
				return
			}
			for _, name := range plan {
				d, _, err := st.Read(ReadRequest{Name: name})
				if err != nil {
					t.Errorf("Read(%s): %v", name, err)
					return
				}
				if len(d.Bytes) == 0 {
					t.Errorf("Read(%s): modeled backend served no pooled payload — audit vacuous", name)
					return
				}
				d.Release()
			}
		}
		audited = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation wedged: %v", err)
	}
	if !audited {
		t.Fatal("driver did not complete")
	}
	st := pool.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("%d leases outstanding after %d epochs:\n%s",
			st.Outstanding, epochs, mempool.FormatLeaks(pool.Leaks()))
	}
	if leaks := pool.Leaks(); len(leaks) != 0 {
		t.Fatalf("leak ledger not empty:\n%s", mempool.FormatLeaks(leaks))
	}
	if want := int64(nFiles * epochs); st.Gets < want {
		t.Fatalf("pool served %d leases, want >= %d — the audit did not cover the epochs", st.Gets, want)
	}
}

// TestLeakAuditDetectsDeliberateLeak proves the harness has teeth: holding
// one delivered sample back must show up as exactly one outstanding lease,
// with the ledger naming a call site.
func TestLeakAuditDetectsDeliberateLeak(t *testing.T) {
	pool := mempool.New(mempool.Config{Debug: true})
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	mem.AddSeeded("leak.bin", 4096, 1)
	mem.AddSeeded("ok.bin", 4096, 2)
	mem.SetBufferPool(pool)
	pf, err := NewPrefetcher(env, mem, testManifest([]string{"leak.bin", "ok.bin"}, 4096), PrefetcherConfig{
		InitialProducers: 1, MaxProducers: 2, InitialBufferCapacity: 4, MaxBufferCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(env, mem, pf)
	st.SetBufferPool(pool)
	pf.Start()
	defer st.Close()

	if err := st.SubmitPlan([]string{"leak.bin", "ok.bin"}); err != nil {
		t.Fatal(err)
	}
	leaked, _, err := st.Read(ReadRequest{Name: "leak.bin"})
	if err != nil {
		t.Fatal(err)
	}
	released, _, err := st.Read(ReadRequest{Name: "ok.bin"})
	if err != nil {
		t.Fatal(err)
	}
	released.Release()

	if got := pool.Stats().Outstanding; got != 1 {
		t.Fatalf("Outstanding = %d, want exactly 1 (the held sample)", got)
	}
	leaks := pool.Leaks()
	if len(leaks) != 1 {
		t.Fatalf("leak ledger has %d sites, want 1:\n%s", len(leaks), mempool.FormatLeaks(leaks))
	}
	for site, n := range leaks {
		if n != 1 {
			t.Fatalf("site %s shows %d leaked leases, want 1", site, n)
		}
		if site == "" {
			t.Fatal("leak site is empty — ledger lost the Get call site")
		}
	}
	leaked.Release()
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("Outstanding = %d after final release, want 0", got)
	}
}
