package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

func newTestTracer(opts TracerOptions) *Tracer {
	return NewTracer(conc.NewReal(), opts)
}

// TestSamplingDeterministic: the head-sampling decision comes from a seeded
// generator, so two tracers with the same seed make the same keep/drop
// sequence (the property the sim's byte-identical replays rest on).
func TestSamplingDeterministic(t *testing.T) {
	a := newTestTracer(TracerOptions{Sampling: 0.3, Seed: 42})
	b := newTestTracer(TracerOptions{Sampling: 0.3, Seed: 42})
	kept := 0
	for i := 0; i < 1000; i++ {
		ca, cb := a.StartTrace(), b.StartTrace()
		if ca != cb {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, ca, cb)
		}
		if ca.Sampled {
			kept++
		}
	}
	if kept < 200 || kept > 400 {
		t.Errorf("kept %d/1000 traces at sampling 0.3, want ~300", kept)
	}
}

// TestSamplingBounds: 0 keeps nothing, 1 keeps everything, and each kept
// trace gets a distinct id under the seed's namespace.
func TestSamplingBounds(t *testing.T) {
	off := newTestTracer(TracerOptions{Sampling: 0})
	for i := 0; i < 100; i++ {
		if ctx := off.StartTrace(); ctx.Sampled || ctx.Trace != 0 {
			t.Fatalf("sampling 0 produced a sampled ctx: %+v", ctx)
		}
	}
	on := newTestTracer(TracerOptions{Sampling: 1, Seed: 7})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		ctx := on.StartTrace()
		if !ctx.Sampled {
			t.Fatalf("sampling 1 dropped trace %d", i)
		}
		if ctx.Trace>>32 != 7 {
			t.Fatalf("trace id %#x not namespaced by seed 7", ctx.Trace)
		}
		if seen[ctx.Trace] {
			t.Fatalf("duplicate trace id %#x", ctx.Trace)
		}
		seen[ctx.Trace] = true
	}
}

// TestSetSamplingClamped: runtime adjustments clamp to [0, 1].
func TestSetSamplingClamped(t *testing.T) {
	tr := newTestTracer(TracerOptions{})
	tr.SetSampling(2.5)
	if got := tr.Sampling(); got != 1 {
		t.Errorf("SetSampling(2.5): got %v, want 1", got)
	}
	tr.SetSampling(-1)
	if got := tr.Sampling(); got != 0 {
		t.Errorf("SetSampling(-1): got %v, want 0", got)
	}
	if ctx := tr.StartTrace(); ctx.Sampled {
		t.Error("StartTrace sampled after SetSampling(-1)")
	}
}

// TestNaNSamplingIsZero: a NaN probability, from Options or at runtime,
// samples nothing and reads back as 0, never as NaN (which /metrics would
// render and JSON cannot carry).
func TestNaNSamplingIsZero(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sampling: math.NaN()})
	if got := tr.Sampling(); got != 0 {
		t.Errorf("TracerOptions{Sampling: NaN}: got %v, want 0", got)
	}
	tr.SetSampling(1)
	tr.SetSampling(math.NaN())
	if got := tr.Sampling(); got != 0 {
		t.Errorf("SetSampling(NaN): got %v, want 0", got)
	}
	if ctx := tr.StartTrace(); ctx.Sampled {
		t.Error("StartTrace sampled after SetSampling(NaN)")
	}
}

// TestRingBounded: each stage ring holds at most RingSize spans, overwrites
// oldest-first, and reports the overflow via Dropped.
func TestRingBounded(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sampling: 1, RingSize: 8})
	for i := 0; i < 20; i++ {
		tr.Record(Span{Trace: uint64(i + 1), Stage: StageStorageRead, Name: fmt.Sprintf("s%02d", i),
			At: time.Duration(i) * time.Millisecond, Latency: time.Millisecond})
	}
	spans := tr.SpansFor(StageStorageRead)
	if len(spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(spans))
	}
	// Oldest first, and only the newest 8 survive (12..19).
	for i, s := range spans {
		if want := uint64(12 + i + 1); s.Trace != want {
			t.Errorf("span %d: trace %d, want %d", i, s.Trace, want)
		}
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped() = %d, want 12", got)
	}
	// Rings are per stage: another stage is unaffected.
	tr.Record(Span{Trace: 1, Stage: StageConsumerWait})
	if got := len(tr.SpansFor(StageConsumerWait)); got != 1 {
		t.Errorf("consumer-wait ring has %d spans, want 1", got)
	}
}

// TestRecordDropsUnsampled: zero-trace spans (unsampled ctx) are discarded.
func TestRecordDropsUnsampled(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sampling: 1})
	tr.Record(Span{Trace: 0, Stage: StageIPC})
	if got := len(tr.Spans()); got != 0 {
		t.Errorf("unsampled span was retained (%d spans)", got)
	}
}

// TestNilTracerSafe: every method is a no-op on a nil receiver, so
// instrumentation sites need no nil checks.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if ctx := tr.StartTrace(); ctx.Sampled {
		t.Error("nil tracer sampled a trace")
	}
	tr.Record(Span{Trace: 1, Stage: StageIPC})
	tr.SetSampling(0.5)
	if got := tr.Sampling(); got != 0 {
		t.Errorf("nil Sampling() = %v", got)
	}
	if got := tr.Now(); got != 0 {
		t.Errorf("nil Now() = %v", got)
	}
	if got := tr.Spans(); got != nil {
		t.Errorf("nil Spans() = %v", got)
	}
	if got := tr.SpansFor(StageIPC); got != nil {
		t.Errorf("nil SpansFor() = %v", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("nil Dropped() = %d", got)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Errorf("nil Export: %v", err)
	}
}

// TestSpansOrdered: Spans merges the per-stage rings into a single stream
// ordered by start time.
func TestSpansOrdered(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sampling: 1})
	tr.Record(Span{Trace: 1, Stage: StageConsumerWait, At: 30 * time.Millisecond})
	tr.Record(Span{Trace: 1, Stage: StageFIFOPop, At: 10 * time.Millisecond})
	tr.Record(Span{Trace: 1, Stage: StageStorageRead, At: 20 * time.Millisecond})
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].At < spans[i-1].At {
			t.Fatalf("spans out of order: %v after %v", spans[i].At, spans[i-1].At)
		}
	}
}

// TestWriteReadSpansRoundTrip: the JSONL interchange preserves every field,
// including the omitempty extras.
func TestWriteReadSpansRoundTrip(t *testing.T) {
	in := []Span{
		{Trace: 0x2a_0000_0001, Stage: StageFIFOPop, Name: "a", At: time.Millisecond, Latency: 2 * time.Millisecond},
		{Trace: 0x2a_0000_0001, Stage: StageStorageRead, Name: "a", At: 3 * time.Millisecond,
			Latency: 5 * time.Millisecond, Size: 4096, Retries: 2, Breaker: "half-open"},
		{Trace: 0x2a_0000_0002, Link: 0x2a_0000_0001, Stage: StageConsumerWait, Name: "a",
			At: 8 * time.Millisecond, Latency: time.Millisecond, Shard: 3,
			StorageWait: 600 * time.Microsecond, BufferWait: 400 * time.Microsecond},
		{Trace: 0x2a_0000_0003, Stage: StageIPC, Name: "b", At: 9 * time.Millisecond,
			Latency: 100 * time.Microsecond, Error: "ipc: read b: no such file"},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed count: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("span %d changed:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

// TestReadSpansRejectsGarbage: a line that is not a span fails the whole
// file, and the error names the line.
func TestReadSpansRejectsGarbage(t *testing.T) {
	good := `{"trace":0,"stage":"device-read","name":"a","at":0,"latency":1000,"size":4}` + "\n"
	for _, c := range []struct{ name, in, line string }{
		{"not-json", "{not json\n", "line 1"},
		{"after-a-good-line", good + "{not json\n", "line 2"},
		{"wrong-type", `{"stage":"device-read","name":"a","latency":"1ms"}` + "\n", "line 1"},
		{"truncated", good + good + `{"stage":"device-read","name":"a"`, "line 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spans, err := ReadSpans(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.line) {
				t.Fatalf("ReadSpans = %d spans, %v; want an error naming %s", len(spans), err, c.line)
			}
		})
	}
}

// TestReadSpansDropsOldLookups: a line of an I/O trace written before the
// trace was a span file has no stage; it is a read when its op is "read" or
// absent, and a metadata lookup, no read at all, when its op is "size". A
// line after a dropped one is still numbered by its place in the file.
func TestReadSpansDropsOldLookups(t *testing.T) {
	const old = `{"at":0,"name":"a","size":100,"latency":1000}
{"at":2000,"name":"a","size":100,"latency":10,"op":"size"}
{"at":3000,"name":"b","size":200,"latency":1000,"op":"read"}
`
	spans, err := ReadSpans(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sp := range spans {
		got = append(got, sp.Name)
	}
	if want := []string{"a", "b"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("kept %q, want %q", got, want)
	}
	if _, err := ReadSpans(strings.NewReader(old + "{nope\n")); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("garbage after a lookup: %v, want an error naming line 4", err)
	}
}

// TestAttributeShares: the share math clamps, scales, and always sums to 1.
func TestAttributeShares(t *testing.T) {
	a := Attribute(AttributionInput{
		Window: time.Second, Consumers: 2,
		ConsumerWait: time.Second, StorageWait: 800 * time.Millisecond,
		BufferWait: 200 * time.Millisecond, IPCOverhead: 100 * time.Millisecond,
	})
	if got := a.StorageShare + a.BufferFullShare + a.IPCShare + a.ConsumerShare; got < 0.999 || got > 1.001 {
		t.Errorf("shares sum to %v", got)
	}
	if a.StorageShare != 0.4 {
		t.Errorf("StorageShare = %v, want 0.4 (800ms over 2x1s)", a.StorageShare)
	}

	// Degenerate window: everything becomes consumer share.
	z := Attribute(AttributionInput{Consumers: 1})
	if z.ConsumerShare != 1 {
		t.Errorf("zero-window ConsumerShare = %v, want 1", z.ConsumerShare)
	}

	// Oversubscribed blame (counters exceed the window) scales down to 1.
	over := Attribute(AttributionInput{
		Window: time.Second, Consumers: 1,
		StorageWait: 2 * time.Second, BufferWait: 2 * time.Second,
	})
	if got := over.StorageShare + over.BufferFullShare + over.IPCShare; got > 1.0001 {
		t.Errorf("oversubscribed shares sum to %v, want <= 1", got)
	}
	if over.ConsumerShare != 0 {
		t.Errorf("oversubscribed ConsumerShare = %v, want 0", over.ConsumerShare)
	}
}

// TestAttributeSpansIPCOverhead: span-derived attribution computes IPC
// overhead as client round-trip minus server handling, floored at zero.
func TestAttributeSpansIPCOverhead(t *testing.T) {
	spans := []Span{
		{Trace: 1, Stage: StageConsumerWait, At: 0, Latency: 10 * time.Millisecond,
			StorageWait: 6 * time.Millisecond, BufferWait: 2 * time.Millisecond},
		{Trace: 1, Stage: StageIPC, At: 0, Latency: 12 * time.Millisecond},
		{Trace: 1, Stage: StageIPCServe, At: time.Millisecond, Latency: 10 * time.Millisecond},
		{Trace: 2, Stage: StageStorageRead, At: 2 * time.Millisecond, Latency: 8 * time.Millisecond},
	}
	a := AttributeSpans(spans, 1)
	if a.IPCOverhead != 2*time.Millisecond {
		t.Errorf("IPCOverhead = %v, want 2ms", a.IPCOverhead)
	}
	if a.Window != 12*time.Millisecond {
		t.Errorf("Window = %v, want 12ms (span extent)", a.Window)
	}
	if a.StorageBusy != 8*time.Millisecond {
		t.Errorf("StorageBusy = %v, want 8ms", a.StorageBusy)
	}
	if a.ConsumerWait != 10*time.Millisecond || a.StorageWait != 6*time.Millisecond || a.BufferWait != 2*time.Millisecond {
		t.Errorf("wait split = %v/%v/%v", a.ConsumerWait, a.StorageWait, a.BufferWait)
	}

	// Server faster than transport is normal; server slower (clock skew)
	// floors at zero rather than going negative.
	skewed := AttributeSpans([]Span{
		{Trace: 1, Stage: StageIPC, At: 0, Latency: time.Millisecond},
		{Trace: 1, Stage: StageIPCServe, At: 0, Latency: 5 * time.Millisecond},
	}, 1)
	if skewed.IPCOverhead != 0 {
		t.Errorf("skewed IPCOverhead = %v, want 0", skewed.IPCOverhead)
	}
}
