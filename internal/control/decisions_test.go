package control

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// monitorAt runs fn inside a sim process with a fresh monitor, so snapshot
// timestamps are exact virtual instants.
func monitorAt(t *testing.T, fn func(env conc.Env, m *Monitor)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("monitor-test", func(*sim.Process) {
		fn(env, NewMonitor(env, 64))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func rateStats(reads, takes int64, wait time.Duration) core.StageStats {
	st := core.StageStats{Reads: reads}
	st.Buffer.Takes = takes
	st.Buffer.ConsumerWait = wait
	return st
}

// TestRateWindowShorterThanInterval: asking for a 100ms window when
// snapshots arrive every second widens to the last snapshot pair instead of
// failing (the /stats dashboard's "last interval" view).
func TestRateWindowShorterThanInterval(t *testing.T) {
	monitorAt(t, func(env conc.Env, m *Monitor) {
		m.Record("s", rateStats(0, 0, 0))
		env.Sleep(time.Second)
		m.Record("s", rateStats(1000, 900, 0))
		env.Sleep(time.Second)
		m.Record("s", rateStats(3000, 2800, 0))

		r, ok := m.Rate("s", 100*time.Millisecond)
		if !ok {
			t.Fatal("Rate not ok with 3 snapshots")
		}
		if r.Window != time.Second {
			t.Errorf("Window = %v, want 1s (widened to the last pair)", r.Window)
		}
		if r.ReadsPerSec != 2000 {
			t.Errorf("ReadsPerSec = %v, want 2000 (the last interval's delta)", r.ReadsPerSec)
		}
		if r.BufferTakesPerSec != 1900 {
			t.Errorf("BufferTakesPerSec = %v, want 1900", r.BufferTakesPerSec)
		}
	})
}

// TestRateSingleSnapshotNotOK: one snapshot cannot produce a rate.
func TestRateSingleSnapshotNotOK(t *testing.T) {
	monitorAt(t, func(env conc.Env, m *Monitor) {
		m.Record("s", rateStats(100, 0, 0))
		if _, ok := m.Rate("s", time.Second); ok {
			t.Error("Rate ok with a single snapshot")
		}
		if _, ok := m.Rate("missing", time.Second); ok {
			t.Error("Rate ok for an unknown stage")
		}
	})
}

// TestRateCounterReset: a stage restart resets its counters; the rate window
// must start after the reset, never reporting negative deltas.
func TestRateCounterReset(t *testing.T) {
	monitorAt(t, func(env conc.Env, m *Monitor) {
		m.Record("s", rateStats(0, 0, 0))
		env.Sleep(time.Second)
		m.Record("s", rateStats(5000, 4000, time.Second))
		env.Sleep(time.Second)
		m.Record("s", rateStats(40, 30, time.Millisecond)) // restarted: counters fresh
		env.Sleep(time.Second)
		m.Record("s", rateStats(140, 120, 2*time.Millisecond))

		r, ok := m.Rate("s", 10*time.Second)
		if !ok {
			t.Fatal("Rate not ok across a counter reset")
		}
		if r.ReadsPerSec < 0 || r.BufferTakesPerSec < 0 {
			t.Fatalf("negative rate across restart: %+v", r)
		}
		// The pair must span only the post-restart snapshots.
		if r.Window != time.Second {
			t.Errorf("Window = %v, want 1s (post-restart span)", r.Window)
		}
		if r.ReadsPerSec != 100 {
			t.Errorf("ReadsPerSec = %v, want 100 (post-restart delta)", r.ReadsPerSec)
		}
	})
}

// TestRateResetAtTailNotOK: when the reset happens at the newest snapshot
// there is no usable post-reset pair yet.
func TestRateResetAtTailNotOK(t *testing.T) {
	monitorAt(t, func(env conc.Env, m *Monitor) {
		m.Record("s", rateStats(1000, 900, time.Second))
		env.Sleep(time.Second)
		m.Record("s", rateStats(10, 5, 0)) // reset is the newest point
		if _, ok := m.Rate("s", 10*time.Second); ok {
			t.Error("Rate ok when the only pair crosses the reset")
		}
	})
}

// TestMonitorAttribution: the monitor's windowed attribution matches the
// interval's counter deltas.
func TestMonitorAttribution(t *testing.T) {
	monitorAt(t, func(env conc.Env, m *Monitor) {
		a := core.StageStats{Now: env.Now()}
		m.Record("s", a)
		env.Sleep(time.Second)
		b := core.StageStats{Now: env.Now(), StorageBusy: 800 * time.Millisecond}
		b.Buffer.ConsumerWait = 600 * time.Millisecond
		b.Buffer.ConsumerWaitStorage = 500 * time.Millisecond
		b.Buffer.ConsumerWaitBufferFull = 100 * time.Millisecond
		m.Record("s", b)

		at, ok := m.Attribution("s", time.Second, 1)
		if !ok {
			t.Fatal("Attribution not ok")
		}
		if at.StorageShare != 0.5 {
			t.Errorf("StorageShare = %v, want 0.5", at.StorageShare)
		}
		if at.BufferFullShare != 0.1 {
			t.Errorf("BufferFullShare = %v, want 0.1", at.BufferFullShare)
		}
		if got := at.StorageShare + at.BufferFullShare + at.IPCShare + at.ConsumerShare; got != 1 {
			t.Errorf("shares sum to %v", got)
		}
	})
}

// TestDecisionTrailCoherent runs the full feedback loop over a starved data
// plane and audits the decision log: one record per tick, monotone tick
// numbers, a contiguous before/after tuning chain, holds that hold, and the
// starvation-driven raise-producers rule actually firing with starvation
// visible in its recorded inputs.
func TestDecisionTrailCoherent(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var recs []DecisionRecord
	var ticks int64
	s.Spawn("driver", func(*sim.Process) {
		st, names := buildStage(env, 4000, time.Millisecond, 8)
		ctl := NewController(env, 50*time.Millisecond)
		_ = ctl.Attach("stage", st, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(250 * time.Microsecond)
		}
		recs = ctl.Decisions("stage")
		ticks = ctl.Ticks()
		ctl.Stop()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if len(recs) == 0 {
		t.Fatal("no decisions recorded")
	}
	if int64(len(recs)) > ticks {
		t.Fatalf("%d records for %d ticks", len(recs), ticks)
	}
	if len(recs) > decisionLogCap {
		t.Fatalf("log grew past its cap: %d > %d", len(recs), decisionLogCap)
	}
	raised := false
	for i, r := range recs {
		if r.Stage != "stage" {
			t.Fatalf("record %d names stage %q", i, r.Stage)
		}
		if i > 0 {
			if r.Tick <= recs[i-1].Tick {
				t.Fatalf("tick numbers not increasing at record %d: %d then %d", i, recs[i-1].Tick, r.Tick)
			}
			if r.Before != recs[i-1].After {
				t.Fatalf("tuning chain broken at record %d: before %+v, previous after %+v",
					i, r.Before, recs[i-1].After)
			}
		}
		switch r.Rule {
		case "hold":
			if r.Before != r.After {
				t.Fatalf("record %d: rule hold but tuning changed %+v -> %+v", i, r.Before, r.After)
			}
		case "raise-producers":
			raised = true
			if r.After.Producers <= r.Before.Producers {
				t.Fatalf("record %d: raise-producers but t %d -> %d", i, r.Before.Producers, r.After.Producers)
			}
			if r.Inputs.Starvation <= 0 {
				t.Fatalf("record %d: raise-producers with zero recorded starvation", i)
			}
		default:
			if r.Before == r.After && r.Rule != "plateau-undo" {
				t.Fatalf("record %d: rule %q but tuning unchanged", i, r.Rule)
			}
		}
		sum := r.Attrib.StorageShare + r.Attrib.BufferFullShare + r.Attrib.IPCShare + r.Attrib.ConsumerShare
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("record %d: attribution shares sum to %v", i, sum)
		}
	}
	if !raised {
		t.Error("starved run never fired raise-producers")
	}
}
