package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The hang-regression tests in this file run under the deterministic
// simulator, whose scheduler detects a drained event queue with parked
// processes and fails the run with ErrDeadlock — a bounded-step watchdog
// with no wall-clock timeouts. Each test encodes a schedule that wedged the
// pre-epoch plan bookkeeping forever; with the plan manager the same
// schedule must run to completion.

// TestHangRegressionTwoConsumersRace is the Planned→Take TOCTOU hang: with
// one plan entry of multiplicity one, two concurrent consumers both used to
// observe Planned(name) == true and both committed to Take — the buffer
// delivers once, and the loser blocked forever. Claim-or-bypass resolves
// the race in one critical section: exactly one consumer claims, the other
// bypasses to the backend, and both reads succeed.
func TestHangRegressionTwoConsumersRace(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var errs [2]error
	s.Spawn("driver", func(*sim.Process) {
		backend, names := testBackend(env, 1, 1000, time.Millisecond, 2)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(1, 4))
		if err != nil {
			t.Error(err)
			return
		}
		st.Start()
		defer st.Close()
		if err := st.SubmitPlan(names[:1]); err != nil {
			t.Error(err)
			return
		}
		mu := env.NewMutex()
		cond := env.NewCond(mu)
		done := 0
		for i := 0; i < 2; i++ {
			i := i
			env.Go(fmt.Sprintf("consumer-%d", i), func() {
				_, _, err := st.Read(ReadRequest{Name: names[0]})
				mu.Lock()
				errs[i] = err
				done++
				cond.Broadcast()
				mu.Unlock()
			})
		}
		mu.Lock()
		for done < 2 {
			cond.Wait()
		}
		mu.Unlock()
		stats := st.Stats()
		if stats.Hits != 1 || stats.Bypasses != 1 {
			t.Errorf("Hits/Bypasses = %d/%d, want exactly 1/1 (one claim, one bypass)",
				stats.Hits, stats.Bypasses)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation wedged (the two-consumer hang is back): %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("consumer %d read failed: %v", i, err)
		}
	}
}

// TestHangRegressionIdleDownScale is the surplus-producer hang: producers
// used to notice a lowered target only after dequeuing their next plan
// entry, so SetProducers(1) on an idle plan left the old thread count
// running (and Close then waited on threads that would never re-check).
// The stop predicate of the plan manager's pop retires parked producers
// immediately.
func TestHangRegressionIdleDownScale(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 2, 1000, time.Millisecond, 2)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		env.Sleep(time.Millisecond) // all four producers park in the plan wait
		st.SetProducers(1)
		env.Sleep(time.Millisecond) // no plan entries flow: retirement must not need them
		if target, running := producers(st); target != 1 || running != 1 {
			t.Fatalf("Producers = %d/%d after idle down-scale, want 1/1", target, running)
		}
		// The survivor still works.
		if _, err := st.SubmitEpoch([]string{"f0000"}); err != nil {
			t.Fatal(err)
		}
		if it, ok := take(st, "f0000"); !ok || it.Err != nil {
			t.Fatalf("take after down-scale = %+v, %v", it, ok)
		}
		st.Close()
	})
}

// TestEpochCancelWakesBlockedConsumer: a consumer parked in TakeOpts on a
// sample of a cancelled epoch must wake promptly with ErrEpochCancelled
// instead of waiting for a sample that will never be delivered, and an
// in-flight producer Put of the cancelled epoch must be refused at the
// buffer.
func TestEpochCancelWakesBlockedConsumer(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var readErr error
	s.Spawn("driver", func(*sim.Process) {
		backend, names := testBackend(env, 6, 1000, 10*time.Millisecond, 1)
		cfg := pfConfig(1, 2) // tiny buffer: fills after two reads
		st, err := NewStage(env, backend, testManifest(names, 1000), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		st.Start()
		defer st.Close()
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Error(err)
			return
		}
		mu := env.NewMutex()
		cond := env.NewCond(mu)
		done := false
		env.Go("blocked-consumer", func() {
			// names[5] is last in plan order; with a 10ms device and a full
			// buffer it is nowhere near delivery when the cancel lands.
			_, _, err := st.Read(ReadRequest{Name: names[5]})
			mu.Lock()
			readErr = err
			done = true
			cond.Broadcast()
			mu.Unlock()
		})
		env.Sleep(25 * time.Millisecond) // buffer full, third read parked at Put
		if _, err := st.CancelEpoch(res.Epoch); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for !done {
			cond.Wait()
		}
		mu.Unlock()
		eps := st.Epochs()
		if len(eps) != 1 || eps[0].State != EpochCancelled {
			t.Errorf("Epochs after cancel = %+v, want one cancelled epoch", eps)
		}
		if e := eps[0]; e.Delivered+e.Dropped != int64(e.Enqueued) {
			t.Errorf("epoch accounting: delivered %d + dropped %d != enqueued %d (entries must resolve exactly once)",
				e.Delivered, e.Dropped, e.Enqueued)
		}
		// Cancel is idempotent: a control-path retry is a no-op.
		if removed, err := st.CancelEpoch(res.Epoch); err != nil || removed != 0 {
			t.Errorf("second CancelEpoch = (%d, %v), want (0, nil)", removed, err)
		}
		if _, err := st.CancelEpoch(res.Epoch + 100); !errors.Is(err, ErrUnknownEpoch) {
			t.Errorf("CancelEpoch(unknown) = %v, want ErrUnknownEpoch", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation wedged (cancel did not wake the consumer): %v", err)
	}
	if !errors.Is(readErr, ErrEpochCancelled) {
		t.Fatalf("blocked read = %v, want ErrEpochCancelled", readErr)
	}
}

// TestEpochCancelReleasesPooledBuffers audits PR-4's ownership rules across
// a cancellation: buffered samples of the cancelled epoch, the producer's
// in-flight sample refused at Put, and everything delivered before the
// cancel must all return their leases — zero outstanding, empty ledger.
func TestEpochCancelReleasesPooledBuffers(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	pool := mempool.New(mempool.Config{Debug: true})
	var done bool
	s.Spawn("driver", func(*sim.Process) {
		samples := make([]dataset.Sample, 10)
		names := make([]string, 10)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("pc%03d", i), Size: 8192}
			names[i] = samples[i].Name
		}
		man := dataset.MustNew(samples)
		dev, err := storage.NewDevice(env, storage.DeviceSpec{
			BaseLatency:    5 * time.Millisecond,
			BytesPerSecond: 1e9,
			Channels:       2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		backend := storage.NewModeledBackend(man, dev)
		backend.SetBufferPool(pool)
		st, err := NewStage(env, backend, testManifest(names, 1000), StageConfig{
			InitialProducers:      2,
			MaxProducers:          4,
			InitialBufferCapacity: 3,
			MaxBufferCapacity:     8,
			BufferPool:            pool,
		})
		if err != nil {
			t.Error(err)
			return
		}
		st.Start()
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Error(err)
			return
		}
		// Consume the first two samples, then cancel mid-epoch with the
		// buffer full and reads in flight.
		for _, n := range names[:2] {
			d, _, err := st.Read(ReadRequest{Name: n})
			if err != nil {
				t.Errorf("Read(%s): %v", n, err)
				return
			}
			d.Release()
		}
		if _, err := st.CancelEpoch(res.Epoch); err != nil {
			t.Error(err)
			return
		}
		env.Sleep(50 * time.Millisecond) // in-flight reads land and are refused
		st.Close()
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("simulation wedged: %v", err)
	}
	if !done {
		t.Fatal("driver did not complete")
	}
	st := pool.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("%d leases outstanding after epoch cancel:\n%s",
			st.Outstanding, mempool.FormatLeaks(pool.Leaks()))
	}
	if leaks := pool.Leaks(); len(leaks) != 0 {
		t.Fatalf("leak ledger not empty after epoch cancel:\n%s", mempool.FormatLeaks(leaks))
	}
	if st.Gets < 4 {
		t.Fatalf("pool served %d leases — audit vacuous", st.Gets)
	}
}

// TestConsumerTakeDeadline: a read that outwaits the configured deadline
// fails with ErrTakeDeadline, returns its plan entry to the epoch, and a
// later read of the same name still claims and delivers the sample.
func TestConsumerTakeDeadline(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 1, 1000, 20*time.Millisecond, 1)
		cfg := pfConfig(1, 4)
		cfg.TakeDeadline = 5 * time.Millisecond
		st, err := NewStage(env, backend, testManifest(names, 1000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		defer st.Close()
		if err := st.SubmitPlan(names); err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		_, _, err = st.Read(ReadRequest{Name: names[0]}) // sample lands at 20ms, deadline at 5ms
		if !errors.Is(err, ErrTakeDeadline) {
			t.Fatalf("Read before arrival = %v, want ErrTakeDeadline", err)
		}
		if waited := env.Now() - start; waited < 5*time.Millisecond || waited >= 20*time.Millisecond {
			t.Fatalf("deadline fired after %v, want within [5ms, 20ms)", waited)
		}
		if ps := st.Stats().Plan; ps.EntriesPending != 1 || ps.ClaimsInFlight != 0 {
			t.Fatalf("PlanStats after deadline = %+v: plan entry lost — retry could never claim it", ps)
		}
		env.Sleep(20 * time.Millisecond) // sample is buffered now
		d, _, err := st.Read(ReadRequest{Name: names[0]})
		if err != nil || d.Size != 1000 {
			t.Fatalf("retried Read = %+v, %v", d, err)
		}
		if stats := st.Stats(); stats.Hits != 1 {
			t.Fatalf("Hits = %d, want 1 (retry claimed the returned entry)", stats.Hits)
		}
	})
}

// TestSubmitCancelResubmitLifecycle drives the control sequence the CI
// smoke exercises — submit, cancel mid-epoch, resubmit, drain — several
// rounds on one prefetcher, checking the manager converges to a clean
// state each round (sim ErrDeadlock guards every blocking step).
func TestSubmitCancelResubmitLifecycle(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 12, 1000, time.Millisecond, 2)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		defer st.Close()
		for round := 0; round < 5; round++ {
			res, err := st.SubmitEpoch(names)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			// Consume a round-dependent prefix, then cancel the rest.
			for _, n := range names[:2+round] {
				if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
					t.Fatalf("round %d Read(%s): %v", round, n, err)
				}
			}
			if _, err := st.CancelEpoch(res.Epoch); err != nil {
				t.Fatalf("round %d cancel: %v", round, err)
			}
			// A cancelled plan must leave nothing claimable: the next read
			// of a planned-but-cancelled name bypasses.
			if _, _, err := st.Read(ReadRequest{Name: names[11]}); err != nil {
				t.Fatalf("round %d post-cancel read: %v", round, err)
			}
			ps := st.Stats().Plan
			if ps.EntriesPending != 0 || ps.ClaimsInFlight != 0 {
				t.Fatalf("round %d: pending=%d claims=%d after cancel, want 0/0",
					round, ps.EntriesPending, ps.ClaimsInFlight)
			}
		}
		// One full epoch drains normally after all that churn.
		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
				t.Fatalf("final epoch Read(%s): %v", n, err)
			}
		}
		for _, e := range st.Epochs() {
			if e.ID == res.Epoch && e.State != EpochDone {
				t.Fatalf("final epoch state = %s, want done", e.State)
			}
		}
		ps := st.Stats().Plan
		if ps.EpochsSubmitted != 6 || ps.EpochsCancelled != 5 {
			t.Fatalf("PlanStats = %+v, want 6 submitted / 5 cancelled", ps)
		}
		// Every entry of every epoch resolved exactly once, as delivered
		// or dropped — never both, never neither.
		for _, e := range st.Epochs() {
			if e.Delivered+e.Dropped != int64(e.Enqueued) {
				t.Errorf("epoch %d: delivered %d + dropped %d != enqueued %d",
					e.ID, e.Delivered, e.Dropped, e.Enqueued)
			}
		}
	})
}

// TestEpochHistoryPruned: terminal epochs beyond the retention bound are
// pruned oldest-first, so a long-running job's epoch map stays bounded.
func TestEpochHistoryPruned(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := testBackend(env, 2, 1000, time.Millisecond, 1)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(1, 4))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		defer st.Close()
		rounds := maxEpochHistory + 8
		for i := 0; i < rounds; i++ {
			if _, err := st.SubmitEpoch(names); err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if it, ok := take(st, n); !ok || it.Err != nil {
					t.Fatalf("round %d take(%s) = %+v, %v", i, n, it, ok)
				}
			}
		}
		eps := st.Epochs()
		if len(eps) != maxEpochHistory {
			t.Fatalf("retained %d epochs, want %d", len(eps), maxEpochHistory)
		}
		if first := eps[0].ID; first != EpochID(rounds-maxEpochHistory+1) {
			t.Fatalf("oldest retained epoch = %d, want %d (pruned oldest-first)",
				first, rounds-maxEpochHistory+1)
		}
	})
}

// TestCapacityBelowShards: the shard set is fixed when the buffer is built,
// so a capacity N below the shard count K leaves K − N shards with a zero
// budget. Those admit only a sample a consumer is already waiting for — the
// over-capacity exception — so every planned read is still a hit, K stays,
// and no shard ever parks more than its budget plus the samples being
// waited for.
func TestCapacityBelowShards(t *testing.T) {
	const shards, samples = 8, 200
	for _, capacity := range []int{1, 2, 3} {
		for _, consumers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("N%d/consumers%d", capacity, consumers), func(t *testing.T) {
				runSim(t, func(env conc.Env) {
					backend, names := testBackend(env, samples, 1000, time.Millisecond, 4)
					cfg := pfConfig(4, 16)
					cfg.BufferShards = shards
					st, err := NewStage(env, backend, testManifest(names, 1000), cfg)
					if err != nil {
						t.Fatal(err)
					}
					st.SetBufferCapacity(capacity)
					st.Start()
					if err := st.SubmitPlan(names); err != nil {
						t.Fatal(err)
					}
					done := false
					env.Go("shard-auditor", func() {
						for !done {
							for i, s := range st.buffer.shards {
								s.mu.Lock()
								awaited := 0
								for name := range s.items {
									if s.waiting[name] > 0 {
										awaited++
									}
								}
								if len(s.items) > s.capacity+awaited {
									t.Errorf("shard %d parks %d samples: budget %d, %d awaited", i, len(s.items), s.capacity, awaited)
								}
								s.mu.Unlock()
							}
							env.Sleep(20 * time.Microsecond)
						}
					})
					wg := env.NewWaitGroup()
					for c := 0; c < consumers; c++ {
						c := c
						wg.Add(1)
						env.Go(fmt.Sprintf("consumer-%d", c), func() {
							defer wg.Done()
							for i := c; i < samples; i += consumers {
								if _, _, err := st.Read(ReadRequest{Name: names[i]}); err != nil {
									t.Errorf("read %s: %v", names[i], err)
									return
								}
							}
						})
					}
					wg.Wait()
					done = true
					s := st.Stats()
					if s.Hits != samples || s.Bypasses != 0 || s.Buffer.Shards != shards || s.Buffer.Capacity != capacity {
						t.Errorf("hits %d, bypasses %d, shards %d, capacity %d; want %d, 0, %d, %d",
							s.Hits, s.Bypasses, s.Buffer.Shards, s.Buffer.Capacity, samples, shards, capacity)
					}
					st.Close()
				})
			})
		}
	}
}
