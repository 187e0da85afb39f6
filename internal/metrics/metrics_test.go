package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

func TestCounterBasics(t *testing.T) {
	env := conc.NewReal()
	c := NewCounter(env)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delta")
		}
	}()
	NewCounter(conc.NewReal()).Add(-1)
}

func TestGaugeSetAdd(t *testing.T) {
	g := NewGauge(conc.NewReal())
	g.Set(10)
	if got := g.Add(-3); got != 7 {
		t.Fatalf("Add returned %d, want 7", got)
	}
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
}

// simTimeInState runs fn inside a simulation and returns the tracker.
func simTimeInState(t *testing.T, fn func(env conc.Env, ts *TimeInState)) *TimeInState {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	var ts *TimeInState
	s.Spawn("driver", func(*sim.Process) {
		ts = NewTimeInState(env, 0)
		fn(env, ts)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTimeInStateDistribution(t *testing.T) {
	ts := simTimeInState(t, func(env conc.Env, ts *TimeInState) {
		env.Sleep(2 * time.Second) // 2s at 0
		ts.Set(3)
		env.Sleep(time.Second) // 1s at 3
		ts.Set(1)
		env.Sleep(time.Second) // 1s at 1
	})
	dist := ts.Distribution()
	want := map[int]time.Duration{0: 2 * time.Second, 3: time.Second, 1: time.Second}
	for k, v := range want {
		if dist[k] != v {
			t.Errorf("dist[%d] = %v, want %v", k, dist[k], v)
		}
	}
}

func TestTimeInStateAdd(t *testing.T) {
	ts := simTimeInState(t, func(env conc.Env, ts *TimeInState) {
		if got := ts.Add(2); got != 2 {
			t.Errorf("Add(2) = %d, want 2", got)
		}
		env.Sleep(time.Second)
		if got := ts.Add(-1); got != 1 {
			t.Errorf("Add(-1) = %d, want 1", got)
		}
		env.Sleep(3 * time.Second)
	})
	dist := ts.Distribution()
	if dist[2] != time.Second || dist[1] != 3*time.Second {
		t.Fatalf("dist = %v, want 1s@2, 3s@1", dist)
	}
	if ts.Current() != 1 {
		t.Fatalf("Current = %d, want 1", ts.Current())
	}
}

func TestCDFComputation(t *testing.T) {
	dist := map[int]time.Duration{
		1: 1 * time.Second,
		2: 2 * time.Second,
		4: 1 * time.Second,
	}
	cdf := CDFOf(dist)
	if len(cdf) != 3 {
		t.Fatalf("len(cdf) = %d, want 3", len(cdf))
	}
	if cdf[0].Value != 1 || !close(cdf[0].CumFraction, 0.25) {
		t.Errorf("cdf[0] = %+v, want value 1 cum 0.25", cdf[0])
	}
	if cdf[1].Value != 2 || !close(cdf[1].CumFraction, 0.75) {
		t.Errorf("cdf[1] = %+v, want value 2 cum 0.75", cdf[1])
	}
	if cdf[2].Value != 4 || cdf[2].CumFraction != 1 {
		t.Errorf("cdf[2] = %+v, want value 4 cum 1", cdf[2])
	}
}

func TestCDFEmpty(t *testing.T) {
	if cdf := CDFOf(nil); cdf != nil {
		t.Fatalf("CDFOf(nil) = %v, want nil", cdf)
	}
	if cdf := CDFOf(map[int]time.Duration{1: 0}); cdf != nil {
		t.Fatalf("CDF of zero durations = %v, want nil", cdf)
	}
}

func TestCDFNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative duration")
		}
	}()
	CDFOf(map[int]time.Duration{1: -time.Second})
}

// Property: CDF is sorted by value, cumulative fractions are nondecreasing
// within [0,1], and the last point is exactly 1.
func TestCDFMonotoneProperty(t *testing.T) {
	prop := func(raw map[int8]uint16) bool {
		dist := make(map[int]time.Duration)
		for k, v := range raw {
			dist[int(k)] = time.Duration(v) * time.Millisecond
		}
		cdf := CDFOf(dist)
		if cdf == nil {
			total := time.Duration(0)
			for _, d := range dist {
				total += d
			}
			return total == 0
		}
		prevVal := int(-1 << 30)
		prevCum := 0.0
		for _, p := range cdf {
			if p.Value <= prevVal {
				return false
			}
			if p.CumFraction < prevCum-1e-9 || p.CumFraction > 1+1e-9 {
				return false
			}
			prevVal, prevCum = p.Value, p.CumFraction
		}
		return cdf[len(cdf)-1].CumFraction == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxValue(t *testing.T) {
	dist := map[int]time.Duration{3: time.Second, 7: 0, 5: time.Second}
	if got := MaxValue(dist); got != 5 {
		t.Fatalf("MaxValue = %d, want 5 (7 has zero time)", got)
	}
	if got := MaxValue(nil); got != 0 {
		t.Fatalf("MaxValue(nil) = %d, want 0", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram(conc.NewReal())
	for _, d := range []time.Duration{10, 20, 30, 40} {
		h.Observe(d * time.Second)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Mean() != 25*time.Second {
		t.Fatalf("Mean = %v, want 25s", h.Mean())
	}
	if h.Max() != 40*time.Second {
		t.Fatalf("Max = %v, want 40s", h.Max())
	}
	// Population stddev of {10,20,30,40} = sqrt(125) ≈ 11.18
	sd := h.Stddev().Seconds()
	if sd < 11.1 || sd > 11.3 {
		t.Fatalf("Stddev = %vs, want ≈11.18s", sd)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(conc.NewReal())
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Quantile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Quantile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := h.Quantile(0); got != 1*time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(conc.NewReal())
	if h.Mean() != 0 || h.Stddev() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram stats not all zero")
	}
}

func TestHistogramClampsNegative(t *testing.T) {
	h := NewHistogram(conc.NewReal())
	h.Observe(-time.Second)
	if h.Mean() != 0 {
		t.Fatalf("Mean = %v, want 0 (negative clamped)", h.Mean())
	}
}

func TestHistogramQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for q > 1")
		}
	}()
	NewHistogram(conc.NewReal()).Quantile(1.5)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{2 * time.Second, 4 * time.Second})
	if s.Count != 2 || s.Mean != 3*time.Second || s.Min != 2*time.Second || s.Max != 4*time.Second {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Stddev != time.Second {
		t.Fatalf("Stddev = %v, want 1s", s.Stddev)
	}
	if z := Summarize(nil); z.Count != 0 || z.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zeroes", z)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestTimeInStateTimeWeightedSum(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var sum, sum2 int64
	s.Spawn("driver", func(p *sim.Process) {
		ts := NewTimeInState(env, 1)
		env.Sleep(2 * time.Second) // 1 for 2s
		ts.Set(3)
		env.Sleep(time.Second) // 3 for 1s
		ts.Set(0)
		env.Sleep(time.Second) // 0 for 1s
		sum = ts.TimeWeightedSum()
		ts.Set(5)
		env.Sleep(time.Second) // in-progress interval: 5 for 1s
		sum2 = ts.TimeWeightedSum()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(1*2+3*1) * int64(time.Second); sum != want {
		t.Fatalf("TimeWeightedSum = %d, want %d", sum, want)
	}
	if want := int64(1*2+3*1+5*1) * int64(time.Second); sum2 != want {
		t.Fatalf("TimeWeightedSum incl. in-progress = %d, want %d", sum2, want)
	}
}

func TestTimeInStateWeightedSumMatchesDistribution(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("driver", func(p *sim.Process) {
		ts := NewTimeInState(env, 0)
		for i := 1; i <= 5; i++ {
			ts.Set(i)
			env.Sleep(time.Duration(i) * 100 * time.Millisecond)
		}
		var fromDist int64
		for v, d := range ts.Distribution() {
			fromDist += int64(v) * int64(d)
		}
		if got := ts.TimeWeightedSum(); got != fromDist {
			t.Errorf("TimeWeightedSum = %d, Distribution-derived sum = %d", got, fromDist)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// stallingClock is a real environment whose clock ticks 10 ns per reading
// and, once armed, stalls the first reader after it has drawn its reading
// until release is sent.
type stallingClock struct {
	*conc.Real
	mu      sync.Mutex
	now     time.Duration
	armed   bool
	drawn   chan struct{}
	release chan struct{}
}

func (c *stallingClock) Now() time.Duration {
	c.mu.Lock()
	now, stall := c.now, c.armed
	c.now += 10
	c.armed = false
	c.mu.Unlock()
	if stall {
		c.drawn <- struct{}{}
		<-c.release
	}
	return now
}

// TestTimeInStateRacingTransitionsApplyInOrder stalls one Add between
// drawing its timestamp and applying it while a second Add runs. With the
// clock read outside the lock the second transition lands first and the
// stalled one then accrues a negative duration and moves since backwards;
// read under the lock, the second Add waits, and every value's time is
// non-negative and the total is the elapsed time.
func TestTimeInStateRacingTransitionsApplyInOrder(t *testing.T) {
	clock := &stallingClock{Real: conc.NewReal(), drawn: make(chan struct{}, 1), release: make(chan struct{})}
	tis := NewTimeInState(clock, 0)
	clock.mu.Lock()
	clock.armed = true
	clock.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); tis.Add(1) }()
	<-clock.drawn
	second := make(chan struct{}, 1)
	go func() { defer wg.Done(); tis.Add(1); second <- struct{}{} }()
	select {
	case <-second: // the clock was read outside the lock
	case <-time.After(50 * time.Millisecond): // the second Add waits on the lock
	}
	clock.release <- struct{}{}
	wg.Wait()

	dist := tis.Distribution()
	elapsed := clock.Now() - 10 // the reading Distribution took
	var sum time.Duration
	for v, d := range dist {
		if d < 0 {
			t.Fatalf("value %d accrued %v: %v", v, d, dist)
		}
		sum += d
	}
	if sum != elapsed {
		t.Fatalf("distribution sums to %v, elapsed %v: %v", sum, elapsed, dist)
	}
	if tis.Current() != 2 {
		t.Fatalf("Current = %d, want 2", tis.Current())
	}
}

// TestBucketedHistogramConcurrentObserve observes from several goroutines
// at once: no observation is lost, Count is the sum of the buckets and the
// overflow, cumulative counts never fall, and Sum is every sample's.
func TestBucketedHistogramConcurrentObserve(t *testing.T) {
	h := NewBucketedHistogram(conc.NewReal(), nil)
	samples := []time.Duration{-time.Second, 0, 70 * time.Microsecond, 3 * time.Millisecond, time.Second, time.Minute}
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, d := range samples {
					h.Observe(d)
				}
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	n := int64(workers * rounds)
	if snap.Count != n*int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", snap.Count, n*int64(len(samples)))
	}
	if want := n * int64(time.Minute+time.Second+3*time.Millisecond+70*time.Microsecond); int64(snap.Sum) != want {
		t.Fatalf("Sum = %v, want %v", snap.Sum, time.Duration(want))
	}
	var prev int64
	for _, b := range snap.Buckets {
		if b.Count < prev {
			t.Fatalf("cumulative buckets fall: %+v", snap.Buckets)
		}
		prev = b.Count
	}
	// The minute is past the last bound: the +Inf bucket (Count) holds it.
	if last := snap.Buckets[len(snap.Buckets)-1].Count; last != snap.Count-n {
		t.Fatalf("last bucket %d, want Count %d minus the %d overflow samples", last, snap.Count, n)
	}
	if empty := NewBucketedHistogram(conc.NewReal(), nil).Snapshot(); empty.Count != 0 || empty.Buckets != nil {
		t.Fatalf("empty snapshot = %+v", empty)
	}
}
