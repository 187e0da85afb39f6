package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples leave exactly 10 beyond the p99 and 1 beyond the p999.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(big, 0.999); got != 999 {
		t.Errorf("p999 of 1..1000 = %v, want 999", got)
	}
}

func TestMedianAndCV(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := coefficientOfVariation([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138/5) > 1e-3 {
		t.Errorf("cv = %v, want %v", got, 2.138/5)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

// epochOf builds an epoch of n reads, each lat long, delivered over wall.
func epochOf(n int, lat, wall time.Duration) epochStat {
	es := epochStat{wall: wall, planned: int64(n), attempted: int64(n), bytes: int64(n) * 1000}
	for i := 0; i < n; i++ {
		es.latencies[i%numClients] = append(es.latencies[i%numClients], uint32(lat))
	}
	return es
}

// A window reports the median over epochs of each per-epoch value, so one
// stalled epoch moves neither the rate nor the latencies.
func TestSummarizeIsPerEpochMedian(t *testing.T) {
	w := &window{
		epochs: []epochStat{
			epochOf(1000, 10*time.Microsecond, 10*time.Millisecond),
			epochOf(1000, 500*time.Microsecond, time.Second), // the stall
			epochOf(1000, 12*time.Microsecond, 12500*time.Microsecond),
		},
		samples: 3000,
		planned: 3000,
	}
	w.after.userCPU = 30 * time.Millisecond
	s := w.summarize()
	if s.samplesPerS != 80000 {
		t.Errorf("samplesPerS = %v, want the middle epoch's 80000", s.samplesPerS)
	}
	if s.mbPerS != 80 {
		t.Errorf("mbPerS = %v, want 80", s.mbPerS)
	}
	if s.p50us != 12 || s.p99us != 12 {
		t.Errorf("p50/p99 = %v/%v us, want the middle epoch's 12/12", s.p50us, s.p99us)
	}
	if got := w.pooledP999us(); got != 500 {
		t.Errorf("pooled p999 = %v us, want the stall's 500", got)
	}
	if s.cpuUsPerSample != 10 {
		t.Errorf("cpuUsPerSample = %v, want 30ms/3000 = 10", s.cpuUsPerSample)
	}
}
