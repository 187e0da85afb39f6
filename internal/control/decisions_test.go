package control

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// TestDecisionRecordAttribution: each tick's record carries the interval's
// critical-path attribution, derived from the always-on wait counters of
// the two snapshots the decision saw.
func TestDecisionRecordAttribution(t *testing.T) {
	dp := &fakeDP{}
	c := newController(conc.NewReal(), time.Second, dp, Tuning{Producers: 4, BufferCapacity: 16})
	dp.stats = core.StageStats{Now: time.Second, StorageBusy: 800 * time.Millisecond}
	dp.stats.Buffer.ConsumerWait = 600 * time.Millisecond
	dp.stats.Buffer.ConsumerWaitStorage = 500 * time.Millisecond
	dp.stats.Buffer.ConsumerWaitBufferFull = 100 * time.Millisecond
	c.Tick()

	recs := c.Decisions()
	if len(recs) != 1 {
		t.Fatalf("%d records after one tick", len(recs))
	}
	at := recs[0].Attrib
	if at.StorageShare != 0.5 {
		t.Errorf("StorageShare = %v, want 0.5", at.StorageShare)
	}
	if at.BufferFullShare != 0.1 {
		t.Errorf("BufferFullShare = %v, want 0.1", at.BufferFullShare)
	}
	if got := at.StorageShare + at.BufferFullShare + at.IPCShare + at.ConsumerShare; got != 1 {
		t.Errorf("shares sum to %v", got)
	}
	if recs[0].Inputs.Interval != time.Second || recs[0].Inputs.Starvation != 0.6 {
		t.Errorf("Inputs = %+v, want a 1s interval at 0.6 starvation", recs[0].Inputs)
	}
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
		ctl := newController(env, 50*time.Millisecond, st, Tuning{Producers: 1, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(250 * time.Microsecond)
		}
		recs = ctl.Decisions()
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

// TestDecisionInputs: the signal view is interval-normalised exactly as the
// autotuner reads it, and a snapshot pair with no time between them carries
// only the point-in-time signals.
func TestDecisionInputs(t *testing.T) {
	degraded := statsAt(time.Second, 400*time.Millisecond, 0, 7, 10)
	degraded.Resilience.Degraded = true
	cases := []struct {
		name      string
		prev, cur core.StageStats
		producers int
		want      DecisionInputs
	}{
		{"zero interval", statsAt(time.Second, 0, 0, 0, 0), degraded, 4,
			DecisionInputs{QueueLen: 7, Degraded: true}},
		{"backwards interval", statsAt(2*time.Second, 0, 0, 0, 0), degraded, 4,
			DecisionInputs{Interval: -time.Second, QueueLen: 7, Degraded: true}},
		{"starvation over the interval", statsAt(0, 0, 0, 0, 0), statsAt(time.Second, 250*time.Millisecond, 0, 3, 0), 1,
			DecisionInputs{Interval: time.Second, Starvation: 0.25, QueueLen: 3}},
		{"producer idle per producer", statsAt(0, 0, 0, 0, 0), statsAt(time.Second, 0, time.Second, 0, 0), 4,
			DecisionInputs{Interval: time.Second, ProducerIdle: 0.25}},
		{"no producers counts as one", statsAt(0, 0, 0, 0, 0), statsAt(time.Second, 0, 500*time.Millisecond, 0, 0), 0,
			DecisionInputs{Interval: time.Second, ProducerIdle: 0.5}},
		{"takes per second", statsAt(time.Second, 0, 0, 0, 100), statsAt(3*time.Second, 0, 0, 0, 300), 1,
			DecisionInputs{Interval: 2 * time.Second, TakesPerSec: 100}},
		{"degraded with an interval", statsAt(0, 0, 0, 0, 0), degraded, 1,
			DecisionInputs{Interval: time.Second, Starvation: 0.4, TakesPerSec: 10, QueueLen: 7, Degraded: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := decisionInputs(tc.prev, tc.cur, Tuning{Producers: tc.producers, BufferCapacity: 8})
			if got != tc.want {
				t.Fatalf("decisionInputs = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestDecisionLogRingRetention: the log keeps the latest decisionLogCap
// ticks, oldest first, and drops the rest.
func TestDecisionLogRingRetention(t *testing.T) {
	c := newController(conc.NewReal(), time.Second, &fakeDP{}, Tuning{Producers: 1, BufferCapacity: 8})
	const ticks = decisionLogCap + 44
	for i := 0; i < ticks; i++ {
		c.Tick()
	}
	recs := c.Decisions()
	if len(recs) != decisionLogCap {
		t.Fatalf("%d records retained, want %d", len(recs), decisionLogCap)
	}
	if recs[0].Tick != ticks-decisionLogCap+1 || recs[len(recs)-1].Tick != ticks {
		t.Fatalf("retained ticks %d..%d, want %d..%d", recs[0].Tick, recs[len(recs)-1].Tick, ticks-decisionLogCap+1, ticks)
	}
	if c.Ticks() != ticks {
		t.Fatalf("Ticks = %d, want %d", c.Ticks(), ticks)
	}
}

// TestDecisionsReturnsACopy: a caller editing what Decisions returned does
// not rewrite the audit trail.
func TestDecisionsReturnsACopy(t *testing.T) {
	c := newController(conc.NewReal(), time.Second, &fakeDP{}, Tuning{Producers: 1, BufferCapacity: 8})
	c.Tick()
	recs := c.Decisions()
	recs[0].Rule = "forged"
	if got := c.Decisions()[0].Rule; got == "forged" {
		t.Fatal("Decisions shares its backing array with the log")
	}
}

// TestRecordEventJoinsTheTrail: an outside action lands in the same log as
// the ticks, stamped with the environment's clock and the current tick, and
// with the applied tuning on both sides since it retuned nothing.
func TestRecordEventJoinsTheTrail(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var recs []DecisionRecord
	s.Spawn("driver", func(*sim.Process) {
		dp := &fakeDP{}
		c := newController(env, time.Second, dp, Tuning{Producers: 1, BufferCapacity: 8})
		env.Sleep(time.Second)
		dp.stats = statsAt(time.Second, 500*time.Millisecond, 0, 50, 10)
		c.Tick()
		env.Sleep(time.Second)
		c.RecordEvent("slo-boost tenant=a")
		recs = c.Decisions()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want the tick and the event", len(recs))
	}
	ev, want := recs[1], Tuning{Producers: 2, BufferCapacity: 8}
	if ev.Rule != "slo-boost tenant=a" || ev.At != 2*time.Second || ev.Tick != 1 || ev.Before != want || ev.After != want {
		t.Fatalf("event record = %+v, want rule slo-boost at 2s, tick 1, tuning %+v both sides", ev, want)
	}
}

// TestControllerNamesRuleWithoutReporter: an algorithm that does not name
// its rules is logged as "adjust" when the tuning moved and "hold" when it
// did not.
func TestControllerNamesRuleWithoutReporter(t *testing.T) {
	dp := &fakeDP{}
	c, err := NewController(conc.NewReal(), time.Second, dp, StaticAlgorithm{Fixed: Tuning{Producers: 4, BufferCapacity: 32}},
		DefaultPolicy(), Tuning{Producers: 2, BufferCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick()
	c.Tick()
	recs := c.Decisions()
	if len(recs) != 2 || recs[0].Rule != "adjust" || recs[1].Rule != "hold" {
		t.Fatalf("Decisions = %+v, want adjust then hold", recs)
	}
	if recs[0].After != (Tuning{Producers: 4, BufferCapacity: 32}) || recs[1].Before != recs[1].After {
		t.Fatalf("Decisions = %+v", recs)
	}
	if len(dp.producers) != 2 || dp.producers[1] != 4 || len(dp.buffers) != 2 || dp.buffers[1] != 32 {
		t.Fatalf("knob calls producers %v, buffers %v; want the initial set then one adjust", dp.producers, dp.buffers)
	}
}
