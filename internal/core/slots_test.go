package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The plan store on slots: plans, claims and producer reads run on each
// name's slot in the stage's name table, the dataset manifest's flat index.

// registerNames resolves names in the manager's table, as a stage's
// submission does, and registers the plan.
func (pm *planManager) registerNames(names []string, held bool) (EpochID, error) {
	slots, err := planSlots(pm.names, names)
	if err != nil {
		return 0, err
	}
	return pm.register(slots, held)
}

// claimName claims by name, as a stage's read does.
func (pm *planManager) claimName(name string) (PlanClaim, bool) {
	slot, ok := pm.names.Slot(name)
	if !ok {
		return PlanClaim{}, false
	}
	return pm.claim(int32(slot))
}

// testManifest lists names, in order, as a dataset manifest of files of
// size bytes.
func testManifest(names []string, size int64) *dataset.Manifest {
	samples := make([]dataset.Sample, len(names))
	for i, n := range names {
		samples[i] = dataset.Sample{Name: n, Size: size}
	}
	return dataset.MustNew(samples)
}

// testTable is the name table of a manifest listing names.
func testTable(names ...string) *dataset.Names {
	return testManifest(names, 1000).Names()
}

// slotPlanManager is a plan manager resolving through a manifest of names.
func slotPlanManager(names ...string) *planManager {
	return newPlanManager(conc.NewReal(), testTable(names...))
}

// slotStage is a started stage over backend, whose files are names.
func slotStage(t *testing.T, env conc.Env, backend storage.Backend, names []string, cfg PrefetcherConfig) *Stage {
	t.Helper()
	pf, err := NewPrefetcher(env, backend, testManifest(names, 1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(env, backend, pf)
	pf.Start()
	return st
}

// TestSlotClaimsRepeatedNamesFIFO: a name planned several times, within and
// across epochs, is claimed oldest entry first, and claims returned out of
// order (take deadlines, shutdown) go back to their own places in line.
func TestSlotClaimsRepeatedNamesFIFO(t *testing.T) {
	pm := slotPlanManager("a", "b", "c")
	e1, _ := pm.registerNames([]string{"a", "b", "a"}, false)
	e2, _ := pm.registerNames([]string{"c", "a"}, false)
	want := []PlanPos{{e1, 0}, {e1, 2}, {e2, 1}}
	var held []PlanClaim
	for i, w := range want {
		c, ok := pm.claimName("a")
		if !ok || c.PlanPos != w {
			t.Fatalf("claim %d of a = %+v, %v; want %+v", i, c.PlanPos, ok, w)
		}
		held = append(held, c)
	}
	if c, ok := pm.claimName("a"); ok {
		t.Fatalf("a fourth claim of a took %+v", c.PlanPos)
	}
	// Back in the opposite order; the line is rebuilt as it was.
	for i := len(held) - 1; i >= 0; i-- {
		pm.unclaim(held[i])
	}
	for i, w := range want {
		c, ok := pm.claimName("a")
		if !ok || c.PlanPos != w {
			t.Fatalf("reclaim %d of a = %+v, %v; want %+v", i, c.PlanPos, ok, w)
		}
	}
	if st := pm.stats(); st.EntriesPending != 2 || st.ClaimsInFlight != 3 {
		t.Fatalf("stats = %+v, want 2 pending (b, c) and 3 claims out", st)
	}
}

// TestSlotCancelSweepsItsOwnPositions: cancelling an epoch removes exactly
// its unclaimed entries — popped or not — leaves its claims to resolve as
// dropped, and leaves another epoch's entries of the same names in line.
func TestSlotCancelSweepsItsOwnPositions(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	pm := slotPlanManager(names...)
	e1, _ := pm.registerNames([]string{"a", "b", "c", "d", "a"}, false)
	e2, _ := pm.registerNames([]string{"a", "c"}, false)
	// Producers popped (and parked) the first three positions.
	run, _, ok, _ := pm.pop(nil, 1, nil, func() bool { return false })
	for i := 0; i < 2 && ok; i++ {
		run, _, ok, _ = pm.pop(run, 1, nil, func() bool { return false })
	}
	if len(run) != 3 || run[2].Name != "c" {
		t.Fatalf("popped %+v, want a, b, c", run)
	}
	claimed, _ := pm.claimName("b") // held by a consumer
	delivered, _ := pm.claimName("a")
	pm.deliver(delivered)
	removed, err := pm.cancel(e1)
	if err != nil || removed != 3 { // c, d and the second a
		t.Fatalf("cancel = %d, %v; want 3 removed", removed, err)
	}
	if _, ok := pm.nameAt(PlanPos{e1, 4}); ok {
		t.Fatal("a cancelled position is still claimable")
	}
	for _, n := range []string{"a", "c"} {
		c, ok := pm.claimName(n)
		if !ok || c.Epoch != e2 {
			t.Fatalf("claim of %s after the cancel = %+v, %v; want epoch %d's entry", n, c.PlanPos, ok, e2)
		}
		pm.deliver(c)
	}
	if _, ok := pm.claimName("d"); ok {
		t.Fatal("d is claimable after its only epoch was cancelled")
	}
	pm.claimDropped(claimed)
	var got EpochStatus
	for _, st := range pm.statuses() {
		if st.ID == e1 {
			got = st
		}
	}
	if got.State != EpochCancelled || got.Delivered != 1 || got.Dropped != 4 {
		t.Fatalf("cancelled epoch = %+v, want 1 delivered and 4 dropped", got)
	}
	if st := pm.stats(); st.EntriesPending != 0 || st.ClaimsInFlight != 0 || st.EpochsLive != 0 {
		t.Fatalf("stats = %+v, want nothing pending, in flight or live", st)
	}
}

// TestSlotSubmitAheadAndDeadline drives the stage on the slot path under
// the simulator: two epochs of one plan submitted ahead are read out
// epoch by epoch, and a read that times out on its sample leaves the entry
// first in line for the next read of the name.
func TestSlotSubmitAheadAndDeadline(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 6, 1000, 10*time.Millisecond, 1)
		st := slotStage(t, env, backend, names, pfConfig(1, 16))
		defer st.Close()
		plan := append([]string{names[0]}, names...) // names[0] twice
		var epochs [2]EpochID
		for i := range epochs {
			res, err := st.SubmitEpoch(plan)
			if err != nil {
				t.Fatal(err)
			}
			epochs[i] = res.Epoch
		}
		st.SetTakeDeadline(time.Millisecond) // the first sample is 10 ms away
		if _, _, err := st.Read(ReadRequest{Name: names[0]}); !errors.Is(err, ErrTakeDeadline) {
			t.Fatalf("read under a 1 ms deadline: %v, want ErrTakeDeadline", err)
		}
		st.SetTakeDeadline(0)
		for _, ep := range epochs {
			for i, n := range plan {
				d, at, err := st.Read(ReadRequest{Name: n})
				if err != nil || d.Name != n || at != (PlanPos{ep, i}) {
					t.Fatalf("read of %s = %v at %+v; want position %+v", n, err, at, PlanPos{ep, i})
				}
				d.Release()
			}
		}
		if s := st.Stats(); s.Bypasses != 0 || s.Plan.Delivered != int64(2*len(plan)) {
			t.Fatalf("stats = %+v, want every read a hit", s)
		}
	})
}

// nameLog records the strings the backend was asked for.
type nameLog struct {
	storage.Backend
	mu   sync.Mutex
	reqs []storage.Request
}

func (l *nameLog) Read(req storage.Request) (storage.Response, error) {
	l.mu.Lock()
	l.reqs = append(l.reqs, req)
	l.mu.Unlock()
	return l.Backend.Read(req)
}

// TestProducersReadTheTablesOwnStrings: producer reads, and bypass reads of
// listed names, carry the name table's own string — the same bytes in
// memory, not an equal copy — so the leaf's slot check is a pointer
// compare; each also carries its manifest position + 1.
func TestProducersReadTheTablesOwnStrings(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 8, 1000, time.Millisecond, 2)
		log := &nameLog{Backend: backend}
		st := slotStage(t, env, log, names, pfConfig(2, 16))
		defer st.Close()
		copies := func(ns []string) []string {
			out := make([]string, len(ns))
			for i, n := range ns {
				out[i] = strings.Clone(n)
			}
			return out
		}
		for _, plan := range [][]string{copies(names[:6]), copies(names[:6])} {
			if err := st.SubmitPlan(plan); err != nil {
				t.Fatal(err)
			}
			for _, n := range copies(plan) {
				d, _, err := st.Read(ReadRequest{Name: n})
				if err != nil {
					t.Fatal(err)
				}
				d.Release()
			}
		}
		// Listed, never planned: a bypass.
		d, _, err := st.Read(ReadRequest{Name: strings.Clone(names[7])})
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
		own := func(n string) (string, int) {
			slot, ok := st.names.Slot(n)
			if !ok {
				t.Fatalf("%s does not resolve", n)
			}
			return st.names.Name(slot), slot + 1
		}
		if len(log.reqs) != 13 {
			t.Fatalf("%d backend reads, want 13", len(log.reqs))
		}
		for _, req := range log.reqs {
			name, leaf := own(req.Name)
			if unsafe.StringData(req.Name) != unsafe.StringData(name) {
				t.Fatalf("read of %s carries a copy, not the table's string", req.Name)
			}
			if req.Slot != leaf {
				t.Fatalf("read of %s carries slot %d, want %d", req.Name, req.Slot, leaf)
			}
		}
	})
}
