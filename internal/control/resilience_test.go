package control

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

func TestAutotunerBacksOffWhenDegraded(t *testing.T) {
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 100, 0)
	// Heavy starvation would normally raise t — but the breaker is open, so
	// the autotuner must shed producers instead of piling on retries.
	cur := statsAt(time.Second, 300*time.Millisecond, 0, 100, 50)
	cur.Resilience = storage.ResilienceStats{State: "open", Degraded: true}
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 3 {
		t.Fatalf("Producers = %d, want 3 (degraded back-off)", got.Producers)
	}
	if got.BufferCapacity != 16 {
		t.Fatalf("BufferCapacity = %d, want unchanged 16", got.BufferCapacity)
	}
}

func TestAutotunerDegradedRespectsFloor(t *testing.T) {
	pol := DefaultPolicy()
	pol.MinProducers = 2
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 0, 0, 100, 50)
	cur.Resilience.Degraded = true
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 2, BufferCapacity: 16}, pol)
	if got.Producers != 2 {
		t.Fatalf("Producers = %d, want clamped at floor 2", got.Producers)
	}
}

func TestAutotunerResumesAfterDegradedClears(t *testing.T) {
	pol := DefaultPolicy()
	a := NewAutotuner()
	prev := statsAt(0, 0, 0, 100, 0)
	degraded := statsAt(time.Second, 300*time.Millisecond, 0, 100, 50)
	degraded.Resilience.Degraded = true
	tun := a.Decide(prev, degraded, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if tun.Producers != 3 {
		t.Fatalf("degraded Producers = %d, want 3", tun.Producers)
	}
	// The breaker closed; the same starvation now raises t again.
	healed := statsAt(2*time.Second, 600*time.Millisecond, 0, 100, 100)
	tun = a.Decide(degraded, healed, tun, pol)
	if tun.Producers != 4 {
		t.Fatalf("healed Producers = %d, want 4 (tuning resumed)", tun.Producers)
	}
}

// TestDecisionLogRecordsDegradedBackoff: the decision log is the control
// plane's view of degraded mode — a tick over a shedding breaker records
// the degraded input next to the back-off it caused, and the signal clears
// on the first tick after the breaker closes.
func TestDecisionLogRecordsDegradedBackoff(t *testing.T) {
	dp := &fakeDP{}
	c := newController(conc.NewReal(), time.Second, dp, Tuning{Producers: 4, BufferCapacity: 16})
	dp.stats = statsAt(time.Second, 300*time.Millisecond, 0, 100, 50)
	dp.stats.Resilience = storage.ResilienceStats{State: "open", Degraded: true}
	c.Tick()
	dp.stats = statsAt(2*time.Second, 300*time.Millisecond, 0, 100, 100)
	dp.stats.Resilience = storage.ResilienceStats{State: "closed"}
	c.Tick()

	recs := c.Decisions()
	if len(recs) != 2 {
		t.Fatalf("%d records after two ticks", len(recs))
	}
	if r := recs[0]; !r.Inputs.Degraded || r.Rule != "degraded-backoff" || r.After.Producers >= r.Before.Producers {
		t.Errorf("degraded tick recorded %+v, want a degraded-backoff that lowers t", r)
	}
	if recs[1].Inputs.Degraded {
		t.Error("degraded input still set after the breaker closed")
	}
}
