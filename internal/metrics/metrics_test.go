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
	if got := ts.Add(0); got != 1 {
		t.Fatalf("current value = %d, want 1", got)
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

func TestSummarizeStats(t *testing.T) {
	s := Summarize([]time.Duration{30 * time.Second, 10 * time.Second, 40 * time.Second, 20 * time.Second})
	if s.Count != 4 || s.Mean != 25*time.Second || s.Min != 10*time.Second || s.Max != 40*time.Second {
		t.Fatalf("Summary = %+v, want 4 samples, mean 25s, min 10s, max 40s", s)
	}
	// Population stddev of {10,20,30,40} = sqrt(125) ≈ 11.18
	if sd := s.Stddev.Seconds(); sd < 11.1 || sd > 11.3 {
		t.Fatalf("Stddev = %vs, want ≈11.18s", sd)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]time.Duration{7 * time.Millisecond})
	want := Summary{Count: 1, Mean: 7 * time.Millisecond, Min: 7 * time.Millisecond, Max: 7 * time.Millisecond}
	if s != want {
		t.Fatalf("Summary = %+v, want %+v (no spread from one sample)", s, want)
	}
}

// TestBucketedHistogramBucketEdges: a bucket's bound is inclusive, one
// nanosecond past it is the next bucket, and the histogram keeps its own
// copy of the bounds.
func TestBucketedHistogramBucketEdges(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	h := NewBucketedHistogram(conc.NewReal(), bounds)
	bounds[0] = time.Hour
	for _, d := range []time.Duration{time.Millisecond, time.Millisecond + 1, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	snap := h.Snapshot()
	want := []HistogramBucket{{Le: time.Millisecond, Count: 1}, {Le: 2 * time.Millisecond, Count: 3}}
	if snap.Count != 4 || len(snap.Buckets) != 2 || snap.Buckets[0] != want[0] || snap.Buckets[1] != want[1] {
		t.Fatalf("snapshot = %+v, want Count 4 and buckets %+v", snap, want)
	}
	if wantSum := 7*time.Millisecond + 1; snap.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestBucketedHistogramClampsNegative(t *testing.T) {
	h := NewBucketedHistogram(conc.NewReal(), nil)
	h.Observe(-time.Second)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Sum != 0 || snap.Buckets[0].Count != 1 {
		t.Fatalf("snapshot = %+v, want one sample of 0 in the first bucket", snap)
	}
}

func TestBucketedHistogramBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bounds that are not strictly ascending")
		}
	}()
	NewBucketedHistogram(conc.NewReal(), []time.Duration{time.Millisecond, time.Millisecond})
}

// TestIntervalSumMatchesTimeWeightedSum: for threads that each hold a
// 0/1 signal up over an interval, the sum of the intervals observed into a
// BucketedHistogram is the signal's time-weighted sum Σ v·d over its
// Distribution. It is why StorageBusy can be read off the storage read
// latency's Sum, overlapping reads included.
func TestIntervalSumMatchesTimeWeightedSum(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var ts *TimeInState
	h := NewBucketedHistogram(env, nil)
	s.Spawn("driver", func(p *sim.Process) {
		ts = NewTimeInState(env, 0)
		wg := env.NewWaitGroup()
		for i := 1; i <= 4; i++ {
			i := i
			wg.Add(1)
			env.Go("reader", func() {
				defer wg.Done()
				env.Sleep(time.Duration(i) * 30 * time.Millisecond)
				start := env.Now()
				ts.Add(1)
				env.Sleep(time.Duration(i) * 100 * time.Millisecond)
				ts.Add(-1)
				h.Observe(env.Now() - start)
			})
		}
		wg.Wait()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var weighted time.Duration
	for v, d := range ts.Distribution() {
		weighted += time.Duration(v) * d
	}
	if want := 1000 * time.Millisecond; weighted != want {
		t.Fatalf("time-weighted sum = %v, want %v", weighted, want)
	}
	if snap := h.Snapshot(); snap.Sum != weighted {
		t.Fatalf("interval sum = %v, time-weighted sum = %v", snap.Sum, weighted)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
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
	if got := tis.Add(0); got != 2 {
		t.Fatalf("current value = %d, want 2", got)
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
