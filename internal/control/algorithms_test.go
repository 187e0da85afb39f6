package control

import (
	"testing"
	"time"
)

func TestAIMDAdditiveIncrease(t *testing.T) {
	pol := DefaultPolicy()
	a := NewAIMD()
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 200*time.Millisecond, 0, 100, 500)
	got := a.Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 5 {
		t.Fatalf("Producers = %d, want 5", got.Producers)
	}
}

func TestAIMDMultiplicativeDecrease(t *testing.T) {
	pol := DefaultPolicy()
	a := NewAIMD()
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 0, 7000*time.Millisecond, 100, 500) // 8 producers, ~87% idle
	got := a.Decide(prev, cur, Tuning{Producers: 8, BufferCapacity: 16}, pol)
	if got.Producers != 4 {
		t.Fatalf("Producers = %d, want halved to 4", got.Producers)
	}
}

func TestAIMDBufferGrowthAtCeiling(t *testing.T) {
	pol := DefaultPolicy()
	pol.MaxProducers = 4
	a := NewAIMD()
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 300*time.Millisecond, 0, 100, 500)
	got := a.Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 4 || got.BufferCapacity != 32 {
		t.Fatalf("Decide = %+v, want t=4 N=32", got)
	}
}

func TestAIMDZeroIntervalHolds(t *testing.T) {
	a := NewAIMD()
	s := statsAt(time.Second, time.Second, 0, 10, 1)
	got := a.Decide(s, s, Tuning{Producers: 3, BufferCapacity: 8}, DefaultPolicy())
	if got.Producers != 3 {
		t.Fatalf("Producers = %d, want hold", got.Producers)
	}
}

func TestHillClimbFollowsGradientUp(t *testing.T) {
	pol := DefaultPolicy()
	h := NewHillClimb()
	tun := Tuning{Producers: 2, BufferCapacity: 16}
	// Throughput keeps rising while it climbs.
	rates := []int64{0, 1000, 2200, 3500}
	for i := 1; i < len(rates); i++ {
		prev := statsAt(time.Duration(i-1)*time.Second, 0, 0, 100, rates[i-1])
		cur := statsAt(time.Duration(i)*time.Second, 0, 0, 100, rates[i])
		tun = h.Decide(prev, cur, tun, pol)
	}
	if tun.Producers != 5 {
		t.Fatalf("Producers = %d, want 5 after three upward probes", tun.Producers)
	}
}

func TestHillClimbReversesOnRegression(t *testing.T) {
	pol := DefaultPolicy()
	h := NewHillClimb()
	tun := Tuning{Producers: 4, BufferCapacity: 16}
	// First interval primes at 1000/s and probes up.
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 0, 0, 100, 1000)
	tun = h.Decide(prev, cur, tun, pol)
	if tun.Producers != 5 {
		t.Fatalf("first probe: %d, want 5", tun.Producers)
	}
	// Throughput collapses: reverse and step down.
	prev = cur
	cur = statsAt(2*time.Second, 0, 0, 100, 1500) // +500/s < 1000/s rate
	tun = h.Decide(prev, cur, tun, pol)
	if tun.Producers != 4 {
		t.Fatalf("after regression: %d, want 4", tun.Producers)
	}
}

func TestHillClimbBouncesOffWalls(t *testing.T) {
	pol := DefaultPolicy()
	pol.MaxProducers = 3
	h := NewHillClimb()
	tun := Tuning{Producers: 3, BufferCapacity: 16}
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 0, 0, 100, 1000)
	tun = h.Decide(prev, cur, tun, pol)
	if tun.Producers != 3 {
		t.Fatalf("Producers = %d, want clamped 3", tun.Producers)
	}
	// Direction flipped: the next improving interval probes downward.
	prev = cur
	cur = statsAt(2*time.Second, 0, 0, 100, 2100)
	tun = h.Decide(prev, cur, tun, pol)
	if tun.Producers != 2 {
		t.Fatalf("Producers = %d, want 2 after bounce", tun.Producers)
	}
}

func TestHillClimbHoldsOnIdleInterval(t *testing.T) {
	h := NewHillClimb()
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 0, 100)
	cur := statsAt(time.Second, 0, 0, 0, 100) // no takes: epoch boundary
	tun := h.Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if tun.Producers != 4 {
		t.Fatalf("Producers = %d, want hold", tun.Producers)
	}
}
