package chain

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
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

// modeled is a modeled device of n 1000-byte files, each read taking lat on
// one of channels, and the manifest listing them.
func modeled(env conc.Env, n int, lat time.Duration, channels int) (storage.Backend, *dataset.Manifest) {
	samples := make([]dataset.Sample, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d", i), Size: 1000}
	}
	m := dataset.MustNew(samples)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: lat, BytesPerSecond: 1e15, Channels: channels})
	if err != nil {
		panic(err)
	}
	return storage.NewModeledBackend(m, dev), m
}

// traced folds the recorder row alone over leaf; flush writes its trace and
// reads it back.
func traced(t *testing.T, env conc.Env, leaf storage.Backend) (ch *Chain, flush func() []obs.Span) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "io.jsonl")
	ch = &Chain{Env: env, Backend: leaf}
	if err := ch.Fold(Config{TraceFile: path}); err != nil {
		t.Fatal(err)
	}
	return ch, func() []obs.Span {
		t.Helper()
		if err := ch.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		spans, err := obs.ReadSpans(f)
		if err != nil {
			t.Fatal(err)
		}
		return spans
	}
}

func read(b storage.Backend, name string) error {
	resp, err := b.Read(storage.Request{Name: name})
	resp.Data.Release()
	return err
}

func TestRecorderCapturesEvents(t *testing.T) {
	runSim(t, func(env conc.Env) {
		leaf, m := modeled(env, 3, time.Millisecond, 2)
		ch, flush := traced(t, env, leaf)
		for i := 0; i < m.Len(); i++ {
			if err := read(ch.Backend, m.Sample(i).Name); err != nil {
				t.Fatal(err)
			}
		}
		spans := flush()
		if len(spans) != 3 {
			t.Fatalf("spans = %d, want 3", len(spans))
		}
		want := obs.Span{Stage: obs.StageDeviceRead, Name: m.Sample(0).Name, Latency: time.Millisecond, Size: 1000}
		if spans[0] != want {
			t.Fatalf("span = %+v, want %+v", spans[0], want)
		}
		if spans[1].At != time.Millisecond {
			t.Fatalf("second span at %v, want 1ms (serial)", spans[1].At)
		}
	})
}

func TestRecorderCapturesErrors(t *testing.T) {
	runSim(t, func(env conc.Env) {
		leaf, _ := modeled(env, 1, time.Millisecond, 1)
		ch, flush := traced(t, env, leaf)
		if err := read(ch.Backend, "ghost"); err == nil {
			t.Fatal("missing read succeeded")
		}
		spans := flush()
		if len(spans) != 1 {
			t.Fatalf("spans = %d, want 1", len(spans))
		}
		if sp := spans[0]; sp.Stage != obs.StageDeviceRead || sp.Name != "ghost" || sp.Error == "" || sp.Size != 0 {
			t.Fatalf("error span = %+v", sp)
		}
	})
}

// TestRecorderWritesWhatItRecorded: the trace file reads back as exactly
// the spans the recorder kept, a failed read's error among them, and a
// second Flush rewrites the same file.
func TestRecorderWritesWhatItRecorded(t *testing.T) {
	runSim(t, func(env conc.Env) {
		leaf, m := modeled(env, 2, 3*time.Microsecond, 1)
		ch, flush := traced(t, env, leaf)
		for _, name := range []string{m.Sample(0).Name, "ghost", m.Sample(1).Name} {
			_ = read(ch.Backend, name)
		}
		rec := ch.Backend.(*recorder)
		for pass := 1; pass <= 2; pass++ {
			spans := flush()
			if len(spans) != len(rec.spans) {
				t.Fatalf("flush %d: file holds %d spans, the recorder %d", pass, len(spans), len(rec.spans))
			}
			for i := range spans {
				if spans[i] != rec.spans[i] {
					t.Fatalf("flush %d: span %d reads back as %+v, recorded %+v", pass, i, spans[i], rec.spans[i])
				}
			}
		}
		if rec.spans[1].Error == "" {
			t.Fatalf("the failed read's span %+v carries no error", rec.spans[1])
		}
	})
}

func TestRecorderUnderConcurrentReaders(t *testing.T) {
	runSim(t, func(env conc.Env) {
		leaf, m := modeled(env, 40, time.Millisecond, 8)
		ch, flush := traced(t, env, leaf)
		wg := env.NewWaitGroup()
		wg.Add(4)
		for w := 0; w < 4; w++ {
			w := w
			env.Go(fmt.Sprintf("r%d", w), func() {
				defer wg.Done()
				for i := w; i < m.Len(); i += 4 {
					_ = read(ch.Backend, m.Sample(i).Name)
				}
			})
		}
		wg.Wait()
		spans := flush()
		if len(spans) != 40 {
			t.Fatalf("spans = %d, want 40", len(spans))
		}
		// The trace must show the four readers overlapping.
		most := 0
		for _, a := range spans {
			n := 0
			for _, b := range spans {
				if b.At <= a.At && a.At < b.End() {
					n++
				}
			}
			most = max(most, n)
		}
		if most < 4 {
			t.Fatalf("at most %d reads in flight, want 4", most)
		}
	})
}

// TestChainPlanReachesTheWarmer: with WarmNextEpoch the hierarchy watches
// plans, and a plan shown to the chain is warmed into the fast tier;
// without it no layer watches plans.
func TestChainPlanReachesTheWarmer(t *testing.T) {
	runSim(t, func(env conc.Env) {
		leaf, m := modeled(env, 4, time.Millisecond, 1)
		hier := tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1}
		cold := &Chain{Env: env, Backend: leaf}
		if err := cold.Fold(Config{Hierarchy: hier}); err != nil {
			t.Fatal(err)
		}
		if cold.WatchesPlans() {
			t.Fatal("a hierarchy without WarmNextEpoch watches plans")
		}
		cold.Close()

		ch := &Chain{Env: env, Backend: leaf}
		if err := ch.Fold(Config{Hierarchy: hier, WarmNextEpoch: true}); err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		if !ch.WatchesPlans() {
			t.Fatal("a warming hierarchy does not watch plans")
		}
		plan := make([]dataset.Sample, m.Len())
		for i := range plan {
			plan[i] = m.Sample(i)
		}
		ch.Plan(plan, plan)
		env.Sleep(time.Second) // virtual time for the warmer to drain
		tb := ch.Backend.(*tiering.Backend)
		for _, s := range plan {
			if !tb.Resident(s.Name) {
				t.Fatalf("%s not warmed", s.Name)
			}
		}
		if st := tb.Stats(); st.PrefetchPromotions != int64(m.Len()) || st.SlowReads != 0 {
			t.Fatalf("stats = %+v, want %d warmed and no demand read", st, m.Len())
		}
	})
}
