package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The plan store: producers pop each epoch's plan from the plan manager,
// which keeps every epoch's name list once. These tests drive it through
// the stage under the simulator, and its lock order on real threads.

// readLog wraps a backend, logging every backend read: a per-sample read
// is a batch of one, a vectored read one batch of its names. It is also a
// Coalescer that puts every sample in one container, so with BatchSamples
// > 1 only the run rules (budget, epoch boundary) end a run.
type readLog struct {
	storage.Backend
	batches [][]string
}

func (l *readLog) Read(req storage.Request) (storage.Response, error) {
	l.batches = append(l.batches, []string{req.Name})
	return l.Backend.Read(req)
}

func (l *readLog) Locate(string) (string, int64, bool) { return "pack-0", 1, true }

func (l *readLog) BatchReader() storage.SampleBatcher { return l }

func (l *readLog) ReadSampleBatch(names []string, out []storage.Data) ([]storage.Data, error) {
	l.batches = append(l.batches, slices.Clone(names))
	for _, n := range names {
		resp, err := l.Backend.Read(storage.Request{Name: n})
		if err != nil {
			return out, err
		}
		out = append(out, resp.Data)
	}
	return out, nil
}

// reads flattens the log into read order.
func (l *readLog) reads() []string {
	var out []string
	for _, b := range l.batches {
		out = append(out, b...)
	}
	return out
}

// TestPlanStoreEmptyPlanRetires: an empty plan — SubmitEpoch(nil), or a
// node whose share of a partitioned plan is empty — is done at
// registration, so it leaves no live epoch behind and ages out of the
// bounded history like any finished epoch.
func TestPlanStoreEmptyPlanRetires(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 4, 1000, time.Millisecond, 1)
		pf, err := NewPrefetcher(env, backend, testManifest(names, 1000), pfConfig(1, 4))
		if err != nil {
			t.Fatal(err)
		}
		st := NewStage(env, backend, pf)
		pf.Start()
		defer st.Close()
		for i := 0; i < 20; i++ {
			if res, err := st.SubmitEpoch(nil); err != nil || res.Enqueued != 0 {
				t.Fatalf("SubmitEpoch(nil) = %+v, %v", res, err)
			}
		}
		st.SetPlanPartitioner(func([]string) []string { return nil }) // this node's share is empty
		for i := 0; i < 20; i++ {
			if _, err := st.SubmitEpoch(names); err != nil {
				t.Fatal(err)
			}
		}
		eps := st.Epochs()
		if len(eps) > maxEpochHistory {
			t.Errorf("retained %d epochs, want at most %d", len(eps), maxEpochHistory)
		}
		for _, e := range eps {
			if e.State != EpochDone {
				t.Errorf("empty epoch %d is %s, want %s", e.ID, e.State, EpochDone)
			}
		}
		if ps := pf.PlanStats(); ps.EpochsLive != 0 || ps.EpochsSubmitted != 40 {
			t.Errorf("PlanStats = %+v, want 0 live of 40 submitted", ps)
		}
	})
}

// TestPlanStoreTraceSamplingAfterSubmit: a sample's trace context is drawn
// when its position is popped, so raising the sampling rate after a plan
// was submitted traces the reads of every position popped afterwards.
func TestPlanStoreTraceSamplingAfterSubmit(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 8, 1000, time.Millisecond, 2)
		pf, err := NewPrefetcher(env, backend, testManifest(names, 1000), pfConfig(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		st := NewStage(env, backend, pf)
		st.SetTracer(obs.NewTracer(env, obs.TracerOptions{}))
		pf.Start()
		defer st.Close()
		if err := st.SubmitPlan(names); err != nil {
			t.Fatal(err)
		}
		st.SetTraceSampling(1) // before any producer ran: nothing is popped yet
		for _, n := range names {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		var traced []string
		for _, sp := range st.Tracer().SpansFor(obs.StageStorageRead) {
			traced = append(traced, sp.Name)
		}
		slices.Sort(traced)
		if !slices.Equal(traced, names) {
			t.Errorf("storage-read spans for %v, want one per planned name %v", traced, names)
		}
	})
}

// TestPlanStoreEpochsInPlanOrder: two epochs submitted back to back over a
// coalescer are read in plan order — epoch 1 wholly before epoch 2 — and
// no vectored run spans the boundary, though every sample shares one
// container and the budget would fit it.
func TestPlanStoreEpochsInPlanOrder(t *testing.T) {
	runSim(t, func(env conc.Env) {
		modeled, names := testBackend(env, 6, 1000, time.Millisecond, 4)
		log := &readLog{Backend: modeled}
		cfg := pfConfig(1, 16)
		cfg.BatchSamples = 4
		cfg.Coalescer = log
		pf, err := NewPrefetcher(env, log, testManifest(names, 1000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStage(env, log, pf)
		pf.Start()
		defer st.Close()
		second := slices.Clone(names)
		slices.Reverse(second)
		for _, plan := range [][]string{names, second} {
			if err := st.SubmitPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range append(slices.Clone(names), second...) {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := log.reads(), append(slices.Clone(names), second...); !slices.Equal(got, want) {
			t.Fatalf("backend read order %v, want plan order %v", got, want)
		}
		read := 0
		for _, b := range log.batches {
			if read < len(names) && read+len(b) > len(names) {
				t.Errorf("run %v spans the epoch boundary", b)
			}
			read += len(b)
		}
		if pf.BatchReads() == 0 {
			t.Error("no vectored read: the coalescer never engaged")
		}
	})
}

// TestEpochCancelReadsNoUnpoppedName: a mid-epoch cancel stops the epoch
// at the plan store — no position still unpopped at the cancel is ever
// read from the backend — and every entry resolves exactly once, as
// delivered or dropped.
func TestEpochCancelReadsNoUnpoppedName(t *testing.T) {
	runSim(t, func(env conc.Env) {
		modeled, names := testBackend(env, 20, 1000, 5*time.Millisecond, 1)
		log := &readLog{Backend: modeled}
		pf, err := NewPrefetcher(env, log, testManifest(names, 1000), pfConfig(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		st := NewStage(env, log, pf)
		pf.Start()
		defer st.Close()
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names[:3] {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatal(err)
			}
		}
		popped := len(names) - pf.QueueLen()
		if popped >= len(names) {
			t.Fatalf("all %d positions popped before the cancel: the test cancels nothing", popped)
		}
		if _, err := st.CancelEpoch(res.Epoch); err != nil {
			t.Fatal(err)
		}
		if n := pf.QueueLen(); n != 0 {
			t.Errorf("QueueLen after cancel = %d, want 0", n)
		}
		env.Sleep(50 * time.Millisecond) // in-flight reads land and are refused
		if got := log.reads(); !slices.Equal(got, names[:popped]) {
			t.Errorf("backend read %v, want only the %d positions popped before the cancel", got, popped)
		}
		e := st.Epochs()[0]
		if e.State != EpochCancelled || e.Delivered != 3 || e.Delivered+e.Dropped != int64(len(names)) {
			t.Errorf("epoch = %+v, want cancelled with 3 delivered and delivered + dropped = %d", e, len(names))
		}
	})
}

// TestPlanStoreLockOrder runs the plan store's lock edges on real threads
// (under -race in CI): producers parked in the plan manager retire through
// its stop predicate (plan → prefetcher) while t is scaled up and down,
// buffer shards call into the manager (shard → plan) as samples of
// cancelled epochs are refused and consumers woken, and Close retires
// every producer, parked or not. Every entry of every epoch resolves
// exactly once.
func TestPlanStoreLockOrder(t *testing.T) {
	env := conc.NewReal()
	backend, names := testBackend(env, 64, 1000, 20*time.Microsecond, 4)
	cfg := pfConfig(2, 4)
	cfg.BufferShards = 4
	pf, err := NewPrefetcher(env, backend, testManifest(names, 1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(env, backend, pf)
	pf.Start()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		stop := make(chan struct{})
		var scaler sync.WaitGroup
		scaler.Add(1)
		go func() {
			defer scaler.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st.SetProducers(1 + i%4)
				time.Sleep(50 * time.Microsecond)
			}
		}()
		for epoch := 0; epoch < 12; epoch++ {
			res, err := st.SubmitEpoch(names)
			if err != nil {
				t.Error(err)
				break
			}
			var consumers sync.WaitGroup
			for c := 0; c < 3; c++ {
				c := c
				consumers.Add(1)
				go func() {
					defer consumers.Done()
					for i := c; i < len(names); i += 3 {
						d, _, err := st.Read(ReadRequest{Name: names[i]})
						if err != nil && !errors.Is(err, ErrEpochCancelled) {
							t.Errorf("Read(%s): %v", names[i], err)
							return
						}
						d.Release()
					}
				}()
			}
			if epoch%2 == 1 {
				time.Sleep(200 * time.Microsecond)
				if _, err := st.CancelEpoch(res.Epoch); err != nil {
					t.Error(err)
				}
			}
			consumers.Wait()
		}
		close(stop)
		scaler.Wait()
		time.Sleep(time.Millisecond) // let the producers park on an empty plan
		st.Close()
		env.Join() // every producer retired
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("plan store wedged: producers or consumers never finished")
	}
	for _, e := range st.Epochs() {
		if e.Delivered+e.Dropped != int64(e.Total) {
			t.Errorf("epoch %d (%s): delivered %d + dropped %d != %d", e.ID, e.State, e.Delivered, e.Dropped, e.Total)
		}
	}
	if _, running := pf.Producers(); running != 0 {
		t.Errorf("%d producers still running after Close", running)
	}
}
