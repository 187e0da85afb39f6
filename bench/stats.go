package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// slice by the nearest-rank method: the smallest value with at least q of
// the samples at or below it. Nearest-rank never interpolates, so the
// result is always a latency that was actually observed.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// coefficientOfVariation is stddev/mean of xs (0 for fewer than two values).
func coefficientOfVariation(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// ratio is num/den with an empty denominator reading as 0: a layer that did
// no work in a window reports 0, not NaN, so every cell stays a JSON number.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedMicros converts nanosecond latencies to ascending microseconds.
func sortedMicros(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
