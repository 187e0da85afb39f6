package metrics

import (
	"math"
	"time"
)

// Summary bundles the headline statistics of a sample set. It is what the
// experiment harness reports per configuration ("average and standard
// deviation of 5 runs").
type Summary struct {
	Count  int
	Mean   time.Duration
	Stddev time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Summarize computes a Summary over raw samples.
func Summarize(samples []time.Duration) Summary {
	s := Summary{Count: len(samples)}
	if s.Count == 0 {
		return s
	}
	s.Min = samples[0]
	var sum time.Duration
	for _, d := range samples {
		sum += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean = sum / time.Duration(s.Count)
	if s.Count >= 2 {
		mean := float64(sum) / float64(s.Count)
		var ss float64
		for _, d := range samples {
			diff := float64(d) - mean
			ss += diff * diff
		}
		s.Stddev = time.Duration(math.Sqrt(ss / float64(s.Count)))
	}
	return s
}
