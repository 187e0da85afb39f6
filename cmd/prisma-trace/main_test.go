package main

import (
	"slices"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// deviceRead is a device-read span of the I/O trace.
func deviceRead(at, latency time.Duration, size int64) obs.Span {
	return obs.Span{Stage: obs.StageDeviceRead, Name: "f", At: at, Latency: latency, Size: size}
}

func TestSummarize(t *testing.T) {
	var spans []obs.Span
	for i := 0; i < 100; i++ {
		spans = append(spans, deviceRead(time.Duration(i)*time.Millisecond, time.Duration(i+1)*time.Millisecond, 1000))
	}
	s := summarize(spans)
	if s.Events != 100 || s.Errors != 0 || s.Bytes != 100_000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 50*time.Millisecond || s.P99 != 99*time.Millisecond || s.MaxLatency != 100*time.Millisecond {
		t.Fatalf("latency quantiles = %v/%v/%v", s.P50, s.P99, s.MaxLatency)
	}
	// Last completion at 99ms+100ms = 199ms.
	if s.Duration != 199*time.Millisecond {
		t.Fatalf("duration = %v, want 199ms", s.Duration)
	}
	if s.ReadsPerSec < 500 || s.ReadsPerSec > 510 {
		t.Fatalf("rate = %v, want ≈502.5", s.ReadsPerSec)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s.Events != 0 || s.MeanLatency != 0 || s.Duration != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestSummarizeCountsErrors: a failed read is an event and an error, moves
// no bytes, and its latency counts like any other read's.
func TestSummarizeCountsErrors(t *testing.T) {
	failed := deviceRead(2*time.Millisecond, 3*time.Millisecond, 0)
	failed.Error = "storage: ghost: no such file"
	s := summarize([]obs.Span{deviceRead(0, time.Millisecond, 4096), failed})
	if s.Events != 2 || s.Errors != 1 || s.Bytes != 4096 {
		t.Fatalf("summary = %+v, want 2 events, 1 error, 4096 bytes", s)
	}
	if s.MeanLatency != 2*time.Millisecond || s.MaxLatency != 3*time.Millisecond || s.Duration != 5*time.Millisecond {
		t.Fatalf("mean %v, max %v, duration %v; want 2ms, 3ms, 5ms", s.MeanLatency, s.MaxLatency, s.Duration)
	}
}

func TestConcurrencyTimeline(t *testing.T) {
	spans := []obs.Span{
		deviceRead(0, 10*time.Millisecond, 1),
		deviceRead(5*time.Millisecond, 10*time.Millisecond, 1),
		deviceRead(30*time.Millisecond, time.Millisecond, 1),
	}
	depth := concurrencyTimeline(spans, 10*time.Millisecond)
	if len(depth) != 4 {
		t.Fatalf("buckets = %d, want 4", len(depth))
	}
	if depth[0] != 2 { // both first reads overlap bucket [0,10)
		t.Fatalf("depth[0] = %d, want 2", depth[0])
	}
	if depth[3] != 1 {
		t.Fatalf("depth[3] = %d, want 1", depth[3])
	}
	if tl := concurrencyTimeline(nil, time.Second); tl != nil {
		t.Fatal("empty trace produced a timeline")
	}
	if tl := concurrencyTimeline(spans, 0); tl != nil {
		t.Fatal("a zero bucket produced a timeline")
	}
}

// TestReadsKeepsReadSpans: summary and timeline see the I/O trace's device
// reads, a lifecycle file's producer reads and stage-less lines (traces
// written before the trace was a span file); every other lifecycle step is
// dropped.
func TestReadsKeepsReadSpans(t *testing.T) {
	var in []obs.Span
	for _, st := range []string{
		obs.StageDeviceRead, obs.StageFIFOPop, obs.StageStorageRead, obs.StageBufferPark,
		"", obs.StageConsumerWait, obs.StageCacheHit, obs.StageTierPromote,
	} {
		in = append(in, obs.Span{Stage: st, Name: "f"})
	}
	var got []string
	for _, sp := range reads(in) {
		got = append(got, sp.Stage)
	}
	want := []string{obs.StageDeviceRead, obs.StageStorageRead, ""}
	if !slices.Equal(got, want) {
		t.Fatalf("kept %q, want %q", got, want)
	}
}
