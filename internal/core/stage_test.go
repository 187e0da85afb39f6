package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// newTestStage builds a stage with a prefetch object over a modeled backend.
func newTestStage(env conc.Env, nFiles int, producers int) (*Stage, []string) {
	backend, names := testBackend(env, nFiles, 1000, time.Millisecond, 4)
	st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(producers, 8))
	if err != nil {
		panic(err)
	}
	st.Start()
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
		st, _ := NewStage(env, faulty, testManifest(names, 1000), pfConfig(1, 8))
		st.Start()
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

// TestEpochPlanHookLiveSet: with each plan the hook sees the live set —
// every sample the active epochs' plans name, once, in the order first
// planned — so a small plan submitted while a larger epoch is still being
// read is shown with that epoch's samples, and an epoch read to the end
// leaves it.
func TestEpochPlanHookLiveSet(t *testing.T) {
	runSim(t, func(env conc.Env) {
		var live [][]string
		backend, names := testBackend(env, 6, 1000, time.Millisecond, 4)
		cfg := pfConfig(2, 8)
		cfg.EpochPlanHook = func(_, l []dataset.Sample) {
			var got []string
			for _, s := range l {
				got = append(got, s.Name)
			}
			live = append(live, got)
		}
		st, err := NewStage(env, backend, testManifest(names, 1000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		defer st.Close()
		first := []string{names[0], names[1], names[2], names[1]}
		for _, plan := range [][]string{first, {names[3], names[0]}} {
			if err := st.SubmitPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range first {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SubmitPlan([]string{names[4]}); err != nil {
			t.Fatal(err)
		}
		want := [][]string{
			{names[0], names[1], names[2]},
			{names[0], names[1], names[2], names[3]},
			{names[3], names[0], names[4]},
		}
		if fmt.Sprint(live) != fmt.Sprint(want) {
			t.Fatalf("live sets %v, want %v", live, want)
		}
	})
}

// TestEpochPlanHookSeesManifestEntries: the plan hook sees every accepted
// plan whole and in order, as the manifest's entries — its own name strings
// with their sizes — whichever path submitted it, and the live set as the
// node reads it (a partitioned plan's subset); a refused plan never reaches
// it.
func TestEpochPlanHookSeesManifestEntries(t *testing.T) {
	for _, c := range []struct {
		name      string
		submit    func(st *Stage, plan []string) error
		partition bool
		refused   bool
	}{
		{name: "names", submit: func(st *Stage, plan []string) error { return st.SubmitPlan(plan) }},
		{name: "wire-bytes", submit: func(st *Stage, plan []string) error {
			wire := make([][]byte, len(plan))
			for i, n := range plan {
				wire[i] = []byte(n)
			}
			_, err := st.SubmitEpochHeld(wire)
			st.StartProducers()
			return err
		}},
		{name: "partitioned", partition: true, submit: func(st *Stage, plan []string) error { return st.SubmitPlan(plan) }},
		{name: "refused", refused: true, submit: func(st *Stage, plan []string) error {
			return st.SubmitPlan(append(plan, "ghost"))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runSim(t, func(env conc.Env) {
				samples := make([]dataset.Sample, 4)
				for i := range samples {
					samples[i] = dataset.Sample{Name: fmt.Sprintf("f%d", i), Size: int64(1000 + 10*i)}
				}
				m := dataset.MustNew(samples)
				dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e15, Channels: 4})
				if err != nil {
					t.Fatal(err)
				}
				backend := storage.NewModeledBackend(m, dev)
				var seen, live [][]dataset.Sample
				cfg := pfConfig(2, 8)
				cfg.EpochPlanHook = func(plan, l []dataset.Sample) { seen, live = append(seen, plan), append(live, l) }
				if c.partition {
					cfg.PlanPartitioner = func(names []string) []string { return names[:1] }
				}
				st, err := NewStage(env, backend, m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				st.Start()
				plan := []string{"f3", "f0", "f2", "f1"}
				err = c.submit(st, plan)
				if c.refused {
					if err == nil || len(seen) != 0 {
						t.Fatalf("refused plan: err %v, hook saw %d plans; want an error and none", err, len(seen))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) != 1 || len(seen[0]) != len(plan) {
					t.Fatalf("hook saw %v, want one plan of %d entries", seen, len(plan))
				}
				for i, got := range seen[0] {
					slot, _ := m.Names().Slot(plan[i])
					want := m.Sample(slot)
					if got != want || unsafe.StringData(got.Name) != unsafe.StringData(want.Name) {
						t.Fatalf("entry %d = %+v, want the manifest's %+v", i, got, want)
					}
				}
				want := len(plan)
				if c.partition {
					want = 1
				}
				if len(live[0]) != want {
					t.Fatalf("live set %v, want the %d entries this node reads", live[0], want)
				}
				for i, got := range live[0] {
					if got != seen[0][i] {
						t.Fatalf("live entry %d = %+v, want %+v", i, got, seen[0][i])
					}
				}
			})
		})
	}
}
