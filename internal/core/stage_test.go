package core

import (
	"errors"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// newTestStage builds a stage with a prefetch object over a modeled backend.
func newTestStage(env conc.Env, nFiles int, producers int) (*Stage, []string) {
	backend, names := testBackend(env, nFiles, 1000, time.Millisecond, 4)
	pf, err := NewPrefetcher(env, backend, pfConfig(producers, 8))
	if err != nil {
		panic(err)
	}
	st := NewStage(env, backend, pf)
	pf.Start()
	return st, names
}

func TestStageServesPlannedFromBuffer(t *testing.T) {
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 10, 2)
		if err := st.SubmitPlan(names); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			d, _, err := st.Read(ReadRequest{Name: n})
			if err != nil || d.Name != n || d.Size != 1000 {
				t.Fatalf("Read(%s) = %+v, %v", n, d, err)
			}
		}
		stats := st.Stats()
		if stats.Reads != 10 || stats.Hits != 10 || stats.Bypasses != 0 {
			t.Fatalf("stats = %+v, want 10 reads, 10 hits", stats)
		}
		st.Close()
	})
}

func TestStageBypassesUnplanned(t *testing.T) {
	// Validation files are not in the plan: they go straight to backend
	// storage (paper §V-A: "PRISMA's prototype does not perform prefetching
	// for validation files").
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 10, 2)
		_ = st.SubmitPlan(names[:5])
		d, _, err := st.Read(ReadRequest{Name: names[7]}) // unplanned
		if err != nil || d.Size != 1000 {
			t.Fatalf("bypass Read = %+v, %v", d, err)
		}
		stats := st.Stats()
		if stats.Bypasses != 1 || stats.Hits != 0 {
			t.Fatalf("stats = %+v, want 1 bypass", stats)
		}
		st.Close()
	})
}

func TestStageErrorCounting(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 2)
		faulty := storage.NewFaultyBackend(env, backend)
		faulty.FailName(names[0])
		pf, _ := NewPrefetcher(env, faulty, pfConfig(1, 8))
		st := NewStage(env, faulty, pf)
		pf.Start()
		_ = st.SubmitPlan(names[:1])
		if _, _, err := st.Read(ReadRequest{Name: names[0]}); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("Read = %v, want injected error", err)
		}
		// Bypass error path, too.
		if _, _, err := st.Read(ReadRequest{Name: names[0]}); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("bypass Read = %v, want injected error", err)
		}
		if st.Stats().Errors != 2 {
			t.Fatalf("Errors = %d, want 2", st.Stats().Errors)
		}
		st.Close()
	})
}

func TestStageWithoutPrefetcher(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 2, 1000, time.Millisecond, 1)
		st := NewStage(env, backend, nil)
		if err := st.SubmitPlan(names); !errors.Is(err, ErrNoPrefetcher) {
			t.Fatalf("SubmitPlan = %v, want ErrNoPrefetcher", err)
		}
		if _, err := st.SubmitEpoch(names); !errors.Is(err, ErrNoPrefetcher) {
			t.Fatalf("SubmitEpoch = %v, want ErrNoPrefetcher", err)
		}
		if _, err := st.CancelEpoch(1); !errors.Is(err, ErrNoPrefetcher) {
			t.Fatalf("CancelEpoch = %v, want ErrNoPrefetcher", err)
		}
		if eps := st.Epochs(); eps != nil {
			t.Fatalf("Epochs = %v, want nil for plain stage", eps)
		}
		if st.Prefetcher() != nil {
			t.Fatal("Prefetcher() != nil for plain stage")
		}
		d, _, err := st.Read(ReadRequest{Name: names[0]})
		if err != nil || d.Size != 1000 {
			t.Fatalf("Read = %+v, %v", d, err)
		}
		st.SetProducers(5)       // must not panic
		st.SetBufferCapacity(10) // must not panic
		if s := st.Stats(); s.Bypasses != 1 {
			t.Fatalf("Bypasses = %d, want 1", s.Bypasses)
		}
	})
}

func TestStageControlInterface(t *testing.T) {
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 20, 1)
		st.SetProducers(4)
		st.SetBufferCapacity(32)
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		stats := st.Stats()
		if stats.TargetProducers != 4 {
			t.Errorf("TargetProducers = %d, want 4", stats.TargetProducers)
		}
		if stats.Buffer.Capacity != 32 {
			t.Errorf("Buffer.Capacity = %d, want 32", stats.Buffer.Capacity)
		}
		if stats.PrefetchedFiles != 20 {
			t.Errorf("PrefetchedFiles = %d, want 20", stats.PrefetchedFiles)
		}
		st.Close()
	})
}

func TestStageReadBlocksUntilPrefetchedAndOverlaps(t *testing.T) {
	// A consumer arriving before producers finish must block only until its
	// file lands, and prefetch must overlap consumption: total time for
	// n files with t=4 producers over a 4-channel device is ~n/4 reads.
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 40, 4)
		_ = st.SubmitPlan(names)
		start := env.Now()
		for _, n := range names {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := env.Now() - start
		// 40 files, 1ms device latency, 4 producers: ≈10ms, certainly well
		// under the 40ms a serial reader would need.
		if elapsed > 20*time.Millisecond {
			t.Fatalf("elapsed %v, want ≈10ms with 4-way prefetch", elapsed)
		}
		st.Close()
	})
}

// fakeGate is a scripted TenantGate: sheds when told, records observations.
type fakeGate struct {
	shedNext bool
	admits   []string
	observed []string
	bytes    int64
	errs     int
	served   int // ObserveLatency(shed=false) calls
	shed     int // ObserveLatency(shed=true) calls
}

var errGateShed = errors.New("gate: shed")

func (g *fakeGate) Admit(tenant string) error {
	if g.shedNext {
		return errGateShed
	}
	g.admits = append(g.admits, tenant)
	return nil
}

func (g *fakeGate) TryAdmit(tenant string) bool {
	if g.shedNext {
		return false
	}
	g.admits = append(g.admits, tenant)
	return true
}

func (g *fakeGate) ObserveRead(tenant string, bytes int64, err error) {
	g.observed = append(g.observed, tenant)
	g.bytes += bytes
	if err != nil {
		g.errs++
	}
}

func (g *fakeGate) ObserveLatency(_ string, _ time.Duration, shed bool) {
	if shed {
		g.shed++
	} else {
		g.served++
	}
}

func TestStageTenantGate(t *testing.T) {
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 4, 2)
		defer st.Close()
		gate := &fakeGate{}
		st.SetTenantGate(gate)
		if err := st.SubmitPlan(names); err != nil {
			t.Fatal(err)
		}

		// Admitted read: gate sees the tenant on both sides of the read.
		d, _, err := st.Read(ReadRequest{Name: names[0], Tenant: "job-a"})
		if err != nil || d.Size != 1000 {
			t.Fatalf("tenant read = %+v, %v", d, err)
		}
		if len(gate.admits) != 1 || gate.admits[0] != "job-a" {
			t.Fatalf("admits = %v", gate.admits)
		}
		if len(gate.observed) != 1 || gate.bytes != 1000 {
			t.Fatalf("observed = %v, bytes = %d", gate.observed, gate.bytes)
		}
		if gate.served != 1 || gate.shed != 0 {
			t.Fatalf("latency feed after an admitted read: served %d shed %d", gate.served, gate.shed)
		}

		// Shed read: typed error surfaces, nothing executes, Shed counts.
		gate.shedNext = true
		if _, _, err := st.Read(ReadRequest{Name: names[1], Tenant: "job-a"}); !errors.Is(err, errGateShed) {
			t.Fatalf("shed read = %v, want gate error", err)
		}
		stats := st.Stats()
		if stats.Shed != 1 {
			t.Fatalf("Shed = %d, want 1", stats.Shed)
		}
		if stats.Reads != 1 || stats.Plan.Delivered != 1 || stats.Plan.ClaimsInFlight != 0 {
			t.Fatalf("Reads = %d, plan %+v: a shed read must not reach the stage or its plan", stats.Reads, stats.Plan)
		}
		if len(gate.observed) != 1 {
			t.Fatal("shed read reached ObserveRead")
		}
		if gate.served != 1 || gate.shed != 1 {
			t.Fatalf("latency feed after a shed: served %d shed %d", gate.served, gate.shed)
		}
		// A shed changed no plan state: the same read, retried, is a hit.
		gate.shedNext = false
		if _, _, err := st.Read(ReadRequest{Name: names[1], Tenant: "job-a"}); err != nil || st.Stats().Hits != 2 {
			t.Fatalf("retry of a shed read: %v, hits %d", err, st.Stats().Hits)
		}

		// Failed read still reports to ObserveRead (error attribution).
		if _, _, err := st.Read(ReadRequest{Name: "no-such-file", Tenant: "job-a"}); err == nil {
			t.Fatal("read of missing file succeeded")
		}
		if gate.errs != 1 || gate.served != 3 {
			t.Fatalf("gate errs = %d, served = %d, want 1 and 3", gate.errs, gate.served)
		}

		// A peer serve is the requester's node's to account for: it passes
		// the gate unseen, even one that is shedding.
		gate.shedNext = true
		admits, observed := len(gate.admits), len(gate.observed)
		if _, _, err := st.Read(ReadRequest{Name: names[2], Tenant: "job-a", Peer: true}); err != nil {
			t.Fatalf("peer serve = %v", err)
		}
		if len(gate.admits) != admits || len(gate.observed) != observed || gate.shed != 1 {
			t.Fatalf("peer serve reached the gate: admits %v observed %v shed %d", gate.admits, gate.observed, gate.shed)
		}

		// Without a gate, a tenant-tagged read is a plain read.
		st2, names2 := newTestStage(env, 1, 1)
		defer st2.Close()
		if _, _, err := st2.Read(ReadRequest{Name: names2[0], Tenant: "anyone"}); err != nil {
			t.Fatal(err)
		}
	})
}
