package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

func runSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func backendFixture(env conc.Env, n int, lat time.Duration, channels int) (storage.Backend, []string) {
	samples := make([]dataset.Sample, n)
	names := make([]string, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d", i), Size: 1000}
		names[i] = samples[i].Name
	}
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: lat, BytesPerSecond: 1e15, Channels: channels})
	if err != nil {
		panic(err)
	}
	return storage.NewModeledBackend(dataset.MustNew(samples), dev), names
}

func TestRecorderCapturesEvents(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := backendFixture(env, 3, time.Millisecond, 2)
		rec := NewRecorder(env, backend)
		for _, n := range names {
			if _, err := readFile(rec, n); err != nil {
				t.Fatal(err)
			}
		}
		tr := rec.Trace()
		if len(tr.Events) != 3 || rec.Len() != 3 {
			t.Fatalf("events = %d, want 3", len(tr.Events))
		}
		ev := tr.Events[0]
		if ev.Name != names[0] || ev.Size != 1000 || ev.Latency != time.Millisecond || ev.Error != "" {
			t.Fatalf("event = %+v", ev)
		}
		if tr.Events[1].At != time.Millisecond {
			t.Fatalf("second event at %v, want 1ms (serial)", tr.Events[1].At)
		}
	})
}

func TestRecorderCapturesErrors(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _ := backendFixture(env, 1, time.Millisecond, 1)
		rec := NewRecorder(env, backend)
		if _, err := readFile(rec, "ghost"); err == nil {
			t.Fatal("missing read succeeded")
		}
		ev := rec.Trace().Events[0]
		if ev.Error == "" || ev.Size != 0 {
			t.Fatalf("error event = %+v", ev)
		}
	})
}

func TestRecorderSizeTraced(t *testing.T) {
	// Size used to be a recording blind spot (passthrough, no event); it
	// must now land in the trace tagged op "size" so replays reproduce
	// metadata traffic too.
	runSim(t, func(env conc.Env) {
		backend, names := backendFixture(env, 1, time.Millisecond, 1)
		rec := NewRecorder(env, backend)
		n, err := rec.Size(names[0])
		if err != nil || n != 1000 {
			t.Fatalf("Size = %d, %v", n, err)
		}
		tr := rec.Trace()
		if len(tr.Events) != 1 {
			t.Fatalf("events = %d, want 1", len(tr.Events))
		}
		ev := tr.Events[0]
		if ev.Op != OpSize || ev.Name != names[0] || ev.Size != 1000 {
			t.Fatalf("size event = %+v", ev)
		}
		// Metadata lookups move no bytes: the summary must not count them.
		if got := tr.Summarize().Bytes; got != 0 {
			t.Fatalf("Summarize().Bytes = %d, want 0 for size-only trace", got)
		}
	})
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 0, Name: "a", Size: 10, Latency: time.Millisecond},
		{At: time.Millisecond, Name: "b", Size: 0, Latency: 2 * time.Millisecond, Error: "boom"},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(got.Events))
	}
	if got.Events[1] != tr.Events[1] {
		t.Fatalf("event = %+v, want %+v", got.Events[1], tr.Events[1])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReadRefusesUnknownOps feeds a recorded byte-range event and a typo:
// replaying either as a whole-file read would change the workload, so the
// parser names the offending line instead.
func TestReadRefusesUnknownOps(t *testing.T) {
	for _, op := range []string{"range", "sise"} {
		in := `{"at":0,"name":"a","size":4,"latency":1000}` + "\n" +
			`{"at":1000,"name":"a","size":4,"latency":1000,"op":"size"}` + "\n" +
			`{"at":2000,"name":"a","size":200,"latency":1000,"op":"` + op + `","off":100,"n":200}` + "\n"
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), op) {
			t.Fatalf("op %q: Read error = %v, want one naming line 3 and the op", op, err)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Events = append(tr.Events, Event{
			At:      time.Duration(i) * time.Millisecond,
			Name:    "f",
			Size:    1000,
			Latency: time.Duration(i+1) * time.Millisecond,
		})
	}
	s := tr.Summarize()
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
	s := (&Trace{}).Summarize()
	if s.Events != 0 || s.MeanLatency != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestConcurrencyTimeline(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 0, Latency: 10 * time.Millisecond},
		{At: 5 * time.Millisecond, Latency: 10 * time.Millisecond},
		{At: 30 * time.Millisecond, Latency: time.Millisecond},
	}}
	depth := tr.ConcurrencyTimeline(10 * time.Millisecond)
	if len(depth) != 4 {
		t.Fatalf("buckets = %d, want 4", len(depth))
	}
	if depth[0] != 2 { // both first reads overlap bucket [0,10)
		t.Fatalf("depth[0] = %d, want 2", depth[0])
	}
	if depth[3] != 1 {
		t.Fatalf("depth[3] = %d, want 1", depth[3])
	}
	if tl := (&Trace{}).ConcurrencyTimeline(time.Second); tl != nil {
		t.Fatal("empty trace produced a timeline")
	}
}

func TestReplayPreservesArrivals(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var replayed *Trace
	s.Spawn("driver", func(*sim.Process) {
		backend, names := backendFixture(env, 4, time.Millisecond, 4)
		// Hand-built trace: arrivals at 0, 50, 100, 150 ms.
		orig := &Trace{}
		for i, n := range names {
			orig.Events = append(orig.Events, Event{At: time.Duration(i*50) * time.Millisecond, Name: n})
		}
		var err error
		replayed, err = orig.Replay(env, backend, 1)
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(replayed.Events) != 4 {
		t.Fatalf("replayed %d events, want 4", len(replayed.Events))
	}
	// Completion-ordered events: arrivals preserved at 0/50/100/150ms.
	for i, ev := range replayed.Events {
		want := time.Duration(i*50) * time.Millisecond
		if ev.At != want {
			t.Fatalf("event %d at %v, want %v", i, ev.At, want)
		}
	}
}

func TestReplaySpeedup(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var elapsed time.Duration
	s.Spawn("driver", func(*sim.Process) {
		backend, names := backendFixture(env, 2, time.Millisecond, 2)
		orig := &Trace{Events: []Event{
			{At: 0, Name: names[0]},
			{At: 100 * time.Millisecond, Name: names[1]},
		}}
		start := env.Now()
		if _, err := orig.Replay(env, backend, 2); err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 100ms gap at 2x = 50ms + 1ms read.
	if elapsed != 51*time.Millisecond {
		t.Fatalf("elapsed = %v, want 51ms", elapsed)
	}
}

func TestReplayValidation(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, _ := backendFixture(env, 1, time.Millisecond, 1)
		if _, err := (&Trace{}).Replay(env, backend, 0); err == nil {
			t.Error("zero speedup accepted")
		}
		out, err := (&Trace{}).Replay(env, backend, 1)
		if err != nil || len(out.Events) != 0 {
			t.Errorf("empty replay = %v, %v", out, err)
		}
	})
}

func TestRecorderUnderConcurrentReaders(t *testing.T) {
	runSim(t, func(env conc.Env) {
		backend, names := backendFixture(env, 40, time.Millisecond, 8)
		rec := NewRecorder(env, backend)
		wg := env.NewWaitGroup()
		wg.Add(4)
		for w := 0; w < 4; w++ {
			w := w
			env.Go(fmt.Sprintf("r%d", w), func() {
				defer wg.Done()
				for i := w; i < len(names); i += 4 {
					_, _ = readFile(rec, names[i])
				}
			})
		}
		wg.Wait()
		if rec.Len() != 40 {
			t.Fatalf("events = %d, want 40", rec.Len())
		}
		// The timeline must show overlap.
		depth := rec.Trace().ConcurrencyTimeline(time.Millisecond)
		max := 0
		for _, d := range depth {
			if d > max {
				max = d
			}
		}
		if max < 4 {
			t.Fatalf("max concurrency %d, want 4", max)
		}
	})
}
