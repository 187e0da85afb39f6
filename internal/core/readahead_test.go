package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// awaitParked sleeps (virtual time) until n samples are buffered.
func awaitParked(env conc.Env, st *Stage, n int) {
	for st.Stats().Buffer.Len < n {
		env.Sleep(time.Millisecond)
	}
}

// TestStageTakeAhead walks the positional take's contract under the
// simulator, where "never waits" is checkable: virtual time must not move.
func TestStageTakeAhead(t *testing.T) {
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 12, 2) // buffer capacity 8
		defer st.Close()
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Fatal(err)
		}

		// A planned read reports where its plan entry sat; a bypass reports
		// the zero position.
		d, at, err := st.Read(ReadRequest{Name: names[0]})
		if err != nil || d.Name != names[0] || at != (PlanPos{Epoch: res.Epoch, Index: 0}) {
			t.Fatalf("Read = %+v at %+v, %v", d, at, err)
		}
		if _, at, err := st.Read(ReadRequest{Name: "not-planned"}); err == nil || at != (PlanPos{}) {
			t.Fatalf("unplanned Read at %+v, err %v", at, err)
		}

		awaitParked(env, st, 8)
		before := st.Stats()
		now := env.Now()

		// Parked entries are served by position, out of plan order too.
		for _, i := range []int{2, 1, 5} {
			d, ok := st.TakeAhead("", PlanPos{Epoch: res.Epoch, Index: i}, 0)
			if !ok || d.Name != names[i] || d.Size != 1000 {
				t.Fatalf("TakeAhead(%d) = %+v, %v", i, d, ok)
			}
		}
		// Everything that cannot be had right now is a plain "no".
		for what, at := range map[string]PlanPos{
			"already taken":     {Epoch: res.Epoch, Index: 2},
			"claimed by name":   {Epoch: res.Epoch, Index: 0},
			"not yet parked":    {Epoch: res.Epoch, Index: 11},
			"past the plan":     {Epoch: res.Epoch, Index: 12},
			"negative index":    {Epoch: res.Epoch, Index: -1},
			"unknown epoch":     {Epoch: res.Epoch + 7, Index: 3},
			"the zero position": {},
		} {
			if d, ok := st.TakeAhead("", at, 0); ok {
				t.Fatalf("TakeAhead(%s) served %+v", what, d)
			}
		}
		if d, ok := st.TakeAhead("", PlanPos{Epoch: res.Epoch, Index: 3}, 999); ok {
			t.Fatalf("TakeAhead under a 999-byte bound served a %d-byte sample", d.Size)
		}
		if env.Now() != now {
			t.Fatalf("TakeAhead waited: clock moved %v", env.Now()-now)
		}

		// Counted exactly like the reads they stand in for.
		after := st.Stats()
		if got := after.Reads - before.Reads; got != 3 {
			t.Fatalf("Reads moved by %d, want 3", got)
		}
		if got := after.Hits - before.Hits; got != 3 {
			t.Fatalf("Hits moved by %d, want 3", got)
		}
		if got := after.Plan.Delivered - before.Plan.Delivered; got != 3 {
			t.Fatalf("Plan.Delivered moved by %d, want 3", got)
		}
		if after.ReadAheadSamples != 3 || after.Bypasses != before.Bypasses || after.Errors != before.Errors {
			t.Fatalf("stats = %+v", after)
		}
		if after.Plan.ClaimsInFlight != 0 {
			t.Fatalf("ClaimsInFlight = %d: a positional take left a claim behind", after.Plan.ClaimsInFlight)
		}

		// The rest of the epoch reads by name as ever, and the epoch retires
		// with every entry delivered exactly once.
		for i, n := range names {
			if i == 0 || i == 1 || i == 2 || i == 5 {
				continue
			}
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatalf("Read(%s): %v", n, err)
			}
		}
		final := st.Stats()
		if final.Plan.Delivered != int64(len(names)) || final.Plan.EpochsLive != 0 || final.Bypasses != 1 {
			t.Fatalf("epoch did not retire cleanly: %+v (bypasses %d)", final.Plan, final.Bypasses)
		}
		// A retired epoch's positions resolve to nothing.
		if _, ok := st.TakeAhead("", PlanPos{Epoch: res.Epoch, Index: 4}, 0); ok {
			t.Fatal("TakeAhead served from a retired epoch")
		}
	})
}

// TestTakeAheadCancelledEpoch: a cancelled epoch's positions stop resolving
// the moment it is cancelled, parked samples or not.
func TestTakeAheadCancelledEpoch(t *testing.T) {
	runSim(t, func(env conc.Env) {
		st, names := newTestStage(env, 8, 2)
		defer st.Close()
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Fatal(err)
		}
		awaitParked(env, st, 8)
		if _, err := st.CancelEpoch(res.Epoch); err != nil {
			t.Fatal(err)
		}
		if d, ok := st.TakeAhead("", PlanPos{Epoch: res.Epoch, Index: 1}, 0); ok {
			t.Fatalf("TakeAhead served %+v from a cancelled epoch", d)
		}
		if got := st.Stats().Plan; got.Delivered != 0 || got.Dropped != int64(len(names)) {
			t.Fatalf("plan stats after cancel = %+v", got)
		}
	})
}

// TestTakeAheadSkipsProducerErrors: a sample parked as a read failure is the
// business of the read that asks for it by name; read-ahead leaves it be.
func TestTakeAheadSkipsProducerErrors(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b := NewBuffer(env, 4, 0)
		boom := errors.New("boom")
		bad, good, absent := PlanPos{Epoch: 1, Index: 0}, PlanPos{Epoch: 1, Index: 1}, PlanPos{Epoch: 1, Index: 2}
		_, _ = b.Put(Item{Name: "bad", PlanPos: bad, Err: boom})
		_, _ = b.Put(Item{Name: "good", PlanPos: good, Size: 10})
		if _, err := b.Take(bad, TakeOptions{NoWait: true}); !errors.Is(err, ErrNotParked) {
			t.Fatalf("no-wait take of an error item = %v, want ErrNotParked", err)
		}
		if _, err := b.Take(absent, TakeOptions{NoWait: true}); !errors.Is(err, ErrNotParked) {
			t.Fatalf("no-wait take of an absent item = %v, want ErrNotParked", err)
		}
		if _, err := b.Take(good, TakeOptions{NoWait: true, MaxBytes: 9}); !errors.Is(err, ErrNotParked) {
			t.Fatalf("no-wait take over MaxBytes = %v, want ErrNotParked", err)
		}
		b.SetClaimAt(func(PlanPos) bool { return false })
		if _, err := b.Take(good, TakeOptions{NoWait: true}); !errors.Is(err, ErrNotParked) {
			t.Fatalf("no-wait take with a refused claim = %v, want ErrNotParked", err)
		}
		if b.Len() != 2 {
			t.Fatalf("refused takes removed items: Len = %d", b.Len())
		}
		b.SetClaimAt(func(PlanPos) bool { return true })
		if it, err := b.Take(good, TakeOptions{NoWait: true, MaxBytes: 10}); err != nil || it.Size != 10 {
			t.Fatalf("no-wait take = %+v, %v", it, err)
		}
		// The error still reaches the reader that claims its entry.
		if it, err := b.Take(bad, TakeOptions{}); err != nil || !errors.Is(it.Err, boom) {
			t.Fatalf("blocking take of the error item = %+v, %v", it, err)
		}
	})
}

// TestPlanManagerPositionalClaimProperty drives random interleavings of
// by-name claims, positional claims, un-claims and epoch cancellations over
// plans full of duplicate names and checks, against a model, the two rules
// positional claims must not bend: every entry resolves exactly once, and
// whichever kind of claim takes an entry, it is the oldest unclaimed one of
// its name (FIFO by epoch, then index) at that moment.
func TestPlanManagerPositionalClaimProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c"}
		pm := newPlanManager(conc.NewReal(), testTable(names...))
		var (
			plans     = map[EpochID][]string{}
			live      []EpochID
			unclaimed = map[string][]PlanPos{} // the model: per name, sorted
			held      []PlanClaim
			total     int
		)
		submit := func() {
			plan := make([]string, 4+rng.Intn(8))
			for i := range plan {
				plan[i] = names[rng.Intn(len(names))]
			}
			id, err := pm.registerNames(plan, false)
			if err != nil {
				t.Fatal(err)
			}
			plans[id] = plan
			live = append(live, id)
			total += len(plan)
			for i, n := range plan {
				unclaimed[n] = append(unclaimed[n], PlanPos{Epoch: id, Index: i})
			}
		}
		// took checks a successful claim against the model and removes it.
		took := func(name string, at PlanPos) {
			u := unclaimed[name]
			if len(u) == 0 || u[0] != at {
				t.Fatalf("seed %d: claim of %q took %+v, oldest unclaimed is %+v", seed, name, at, u)
			}
			unclaimed[name] = u[1:]
		}
		submit()
		submit()
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // by-name claim, held for a while
				name := names[rng.Intn(len(names))]
				c, ok := pm.claimName(name)
				if ok != (len(unclaimed[name]) > 0) {
					t.Fatalf("seed %d: claim(%q) = %v with %d unclaimed", seed, name, ok, len(unclaimed[name]))
				}
				if ok {
					took(name, c.PlanPos)
					held = append(held, c)
				}
			case 3, 4, 5, 6: // positional claim at a random position
				id := live[rng.Intn(len(live))]
				at := PlanPos{Epoch: id, Index: rng.Intn(len(plans[id]) + 1)}
				name, ok := pm.nameAt(at)
				if ok != pm.claimAt(at) {
					t.Fatalf("seed %d: nameAt and claimAt disagree at %+v", seed, at)
				}
				front := false
				if at.Index < len(plans[id]) {
					u := unclaimed[plans[id][at.Index]]
					front = len(u) > 0 && u[0] == at
				}
				if ok != front {
					t.Fatalf("seed %d: claimAt(%+v) = %v, model says %v", seed, at, ok, front)
				}
				if ok {
					took(name, at)
				}
			case 7: // a held claim resolves: delivered, or returned to its epoch
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				c := held[i]
				held = append(held[:i], held[i+1:]...)
				if rng.Intn(3) > 0 {
					pm.deliver(c)
					continue
				}
				pm.unclaim(c)
				if !slices.Contains(live, c.Epoch) {
					continue // its epoch was cancelled: the entry is dropped
				}
				name := pm.names.Name(int(c.Slot))
				u := append(unclaimed[name], c.PlanPos)
				sort.Slice(u, func(i, j int) bool { return u[i].before(u[j]) })
				unclaimed[name] = u
			case 8:
				if len(live) < 4 {
					submit()
				}
			case 9: // cancel an epoch: its unclaimed entries go, every name's others stay in line
				if len(live) < 2 {
					continue
				}
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				want := 0
				for name, u := range unclaimed {
					kept := u[:0]
					for _, at := range u {
						if at.Epoch == id {
							want++
						} else {
							kept = append(kept, at)
						}
					}
					unclaimed[name] = kept
				}
				if removed, err := pm.cancel(id); err != nil || removed != want {
					t.Fatalf("seed %d: cancel(%d) removed %d, %v; model says %d", seed, id, removed, err, want)
				}
			}
		}
		for _, c := range held {
			pm.deliver(c)
		}
		pending := 0
		for _, u := range unclaimed {
			pending += len(u)
		}
		st := pm.stats()
		if st.EntriesPending != pending || int(st.Delivered+st.Dropped)+pending != total || st.ClaimsInFlight != 0 {
			t.Fatalf("seed %d: delivered %d, dropped %d, pending %d (model %d), %d entries, %d in flight",
				seed, st.Delivered, st.Dropped, st.EntriesPending, pending, total, st.ClaimsInFlight)
		}
	}
}

// TestPositionalClaimRacesByNameClaim races the two claim paths over real
// goroutines (run under -race): one claims every entry by name, one by
// position, over a plan where every name is planned many times. Whoever
// wins an entry, each is claimed exactly once and none is lost.
func TestPositionalClaimRacesByNameClaim(t *testing.T) {
	pm := newPlanManager(conc.NewReal(), testTable("dup0", "dup1", "dup2", "dup3", "dup4", "dup5", "dup6"))
	const n = 2000
	plan := make([]string, n)
	for i := range plan {
		plan[i] = fmt.Sprintf("dup%d", i%7)
	}
	id, err := pm.registerNames(plan, false)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[PlanPos]int{}
	)
	note := func(at PlanPos) {
		mu.Lock()
		seen[at]++
		mu.Unlock()
	}
	wg.Add(2)
	go func() { // by name, round-robin over the names until none is left
		defer wg.Done()
		for left := true; left; {
			left = false
			for k := 0; k < 7; k++ {
				if c, ok := pm.claimName(fmt.Sprintf("dup%d", k)); ok {
					left = true
					note(c.PlanPos)
					pm.deliver(c)
				}
			}
		}
	}()
	go func() { // by position, sweeping until a sweep claims nothing
		defer wg.Done()
		for progress := true; progress; {
			progress = false
			for i := 0; i < n; i++ {
				if at := (PlanPos{Epoch: id, Index: i}); pm.claimAt(at) {
					progress = true
					note(at)
				}
			}
		}
	}()
	wg.Wait()
	// The sweeper may give up while the by-name claimer still holds the
	// front of every line; whatever is left must still be claimable.
	for k := 0; k < 7; k++ {
		for {
			c, ok := pm.claimName(fmt.Sprintf("dup%d", k))
			if !ok {
				break
			}
			note(c.PlanPos)
			pm.deliver(c)
		}
	}
	if len(seen) != n {
		t.Fatalf("%d distinct entries claimed, want %d", len(seen), n)
	}
	for at, c := range seen {
		if c != 1 {
			t.Fatalf("entry %+v claimed %d times", at, c)
		}
	}
	if st := pm.stats(); st.Delivered != n || st.EntriesPending != 0 || st.EpochsLive != 0 {
		t.Fatalf("plan stats = %+v", st)
	}
}

// TestTakeAheadPooledLeakAudit pushes a whole pooled epoch through the
// positional path — with duplicates of one name in the plan, which share a
// buffer slot — and audits the pool: a lease taken ahead is released by
// whoever receives it, one never taken is released by cancel.
func TestTakeAheadPooledLeakAudit(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	pool := mempool.New(mempool.Config{Debug: true})
	var served int
	s.Spawn("driver", func(*sim.Process) {
		samples := make([]dataset.Sample, 16)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("ta%02d", i), Size: int64(4096 + 100*i)}
		}
		man := dataset.MustNew(samples)
		dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: 200 * time.Microsecond, BytesPerSecond: 1e9, Channels: 2})
		if err != nil {
			t.Error(err)
			return
		}
		backend := storage.NewModeledBackend(man, dev)
		backend.SetBufferPool(pool)
		cfg := pfConfig(2, 8)
		cfg.BufferPool = pool
		st, err := NewStage(env, backend, man, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		st.Start()
		defer st.Close()

		plan := man.EpochFileList(3, 0)
		plan = append(plan, plan[2], plan[2]) // planned duplicates
		res, err := st.SubmitEpoch(plan)
		if err != nil {
			t.Error(err)
			return
		}
		// Walk the plan the way a connection does: a read by name, then as
		// many following entries as can be had without waiting.
		for i := 0; i < len(plan)-4; {
			d, at, err := st.Read(ReadRequest{Name: plan[i]})
			if err != nil || at.Index != i {
				t.Errorf("Read(%s) at %+v: %v", plan[i], at, err)
				return
			}
			d.Release()
			served++
			for i++; i < len(plan)-4; i++ {
				d, ok := st.TakeAhead("", PlanPos{Epoch: res.Epoch, Index: i}, 0)
				if !ok {
					break
				}
				if d.Name != plan[i] || len(d.Bytes) == 0 {
					t.Errorf("TakeAhead(%d) = %q with %d bytes, want %q", i, d.Name, len(d.Bytes), plan[i])
				}
				d.Release()
				served++
			}
		}
		// The tail of the epoch is abandoned: cancel reclaims it.
		if _, err := st.CancelEpoch(res.Epoch); err != nil {
			t.Error(err)
		}
		if got := st.Stats(); got.ReadAheadSamples == 0 || got.Plan.Delivered != int64(served) {
			t.Errorf("ReadAheadSamples %d, delivered %d, served %d", got.ReadAheadSamples, got.Plan.Delivered, served)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation wedged: %v", err)
	}
	if served == 0 {
		t.Fatal("driver did not complete")
	}
	if st := pool.Stats(); st.Outstanding != 0 {
		t.Fatalf("%d leases outstanding:\n%s", st.Outstanding, mempool.FormatLeaks(pool.Leaks()))
	}
}
