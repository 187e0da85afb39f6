package chain

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// fixture is a pooled MemBackend leaf holding files samples, so every
// subset of the rows reads the same names back.
type fixture struct {
	mem      *storage.MemBackend
	pool     *mempool.Pool
	names    []string
	payloads [][]byte
}

func newFixture(t *testing.T, files int) *fixture {
	t.Helper()
	f := &fixture{mem: storage.NewMemBackend(), pool: mempool.New(mempool.Config{Debug: true})}
	for i := 0; i < files; i++ {
		f.names = append(f.names, fmt.Sprintf("s%03d", i))
		f.payloads = append(f.payloads, bytes.Repeat([]byte{byte(i), byte(i >> 3), 0xA5}, 1000+i))
		f.mem.Add(f.names[i], f.payloads[i])
	}
	f.mem.SetBufferPool(f.pool)
	return f
}

// manifest lists the fixture's samples.
func (f *fixture) manifest() *dataset.Manifest {
	samples := make([]dataset.Sample, len(f.names))
	for i, n := range f.names {
		samples[i] = dataset.Sample{Name: n, Size: int64(len(f.payloads[i]))}
	}
	return dataset.MustNew(samples)
}

// everyRow is a Config that turns every row on.
func (f *fixture) everyRow(t *testing.T) Config {
	r := storage.DefaultResilienceConfig()
	return Config{
		TraceFile:  filepath.Join(t.TempDir(), "io.jsonl"),
		Hierarchy:  tiering.Config{FastCapacity: 1 << 20, PromoteAfter: 1},
		Resilience: &r,
	}
}

// only keeps the rows of cfg named in on.
func only(cfg Config, on map[string]bool) Config {
	if !on["recorder"] {
		cfg.TraceFile = ""
	}
	if !on["hierarchy"] {
		cfg.Hierarchy = tiering.Config{}
	}
	if !on["resilient"] {
		cfg.Resilience = nil
	}
	return cfg
}

// audit fails if the pool still has a lease out.
func (f *fixture) audit(t *testing.T) {
	t.Helper()
	if n := f.pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled leases outstanding:\n%s", n, mempool.FormatLeaks(f.pool.Leaks()))
	}
}

// TestChainFoldEverySubset folds every subset of the table's rows over one
// leaf: the fold builds exactly the rows switched on, in table order; every
// sample reads back byte-identical through them; each row's part of the snapshot is there exactly
// when the row is; the recorder's trace reaches its file at Flush, one
// device-read span of the file's size per read that reached the leaf; and once
// the chain is closed (twice) the pool has nothing out.
func TestChainFoldEverySubset(t *testing.T) {
	f := newFixture(t, 8)
	for mask := 0; mask < 1<<len(Layers); mask++ {
		on := map[string]bool{}
		var want []string
		for i, l := range Layers {
			if mask&(1<<i) != 0 {
				on[l.Name] = true
				want = append(want, l.Name)
			}
		}
		t.Run(strings.Join(append([]string{"leaf"}, want...), "<"), func(t *testing.T) {
			cfg := only(f.everyRow(t), on)
			ch := &Chain{Env: conc.NewReal(), Pool: f.pool, Backend: f.mem}
			if err := ch.Fold(cfg); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ch.Built, want) {
				t.Fatalf("built %v, want %v", ch.Built, want)
			}
			for pass := 0; pass < 2; pass++ {
				for i, name := range f.names {
					resp, err := ch.Backend.Read(storage.Request{Name: name})
					if err != nil {
						t.Fatalf("read %s: %v", name, err)
					}
					same := bytes.Equal(resp.Data.Bytes, f.payloads[i])
					resp.Data.Release()
					if !same {
						t.Fatalf("read %s: payload differs", name)
					}
				}
			}
			var s core.StageStats
			ch.Snapshot(&s)
			if s.TieringEnabled != on["hierarchy"] || (s.Resilience.State != "") != on["resilient"] {
				t.Fatalf("snapshot tiering %v, breaker %q; rows %v", s.TieringEnabled, s.Resilience.State, ch.Built)
			}
			if on["hierarchy"] && s.Tiering.FastHits == 0 {
				t.Fatalf("second pass missed the hierarchy: %+v", s.Tiering)
			}
			ch.Close()
			ch.Close()
			f.audit(t)
			if err := ch.Flush(); err != nil {
				t.Fatal(err)
			}
			if !on["recorder"] {
				return
			}
			file, err := os.Open(cfg.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			spans, err := obs.ReadSpans(file)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(2 * len(f.names))
			if on["hierarchy"] {
				want = s.Tiering.SlowReads
			}
			if int64(len(spans)) != want {
				t.Fatalf("the I/O trace holds %d spans, want %d: one per read that reached the leaf", len(spans), want)
			}
			for _, sp := range spans {
				i := slices.Index(f.names, sp.Name)
				if sp.Stage != obs.StageDeviceRead || i < 0 || sp.Size != int64(len(f.payloads[i])) || sp.Error != "" {
					t.Fatalf("span %+v: want a device-read of a fixture file at its size", sp)
				}
			}
		})
	}
}

// TestChainFoldFailureClosesRowsBelow swaps each row's build for one that
// reads a sample through every row below it (so the hierarchy holds a
// pooled resident) and then fails: the fold names the row, and what it had
// built is closed, leaving no lease out.
func TestChainFoldFailureClosesRowsBelow(t *testing.T) {
	f := newFixture(t, 4)
	for i, row := range Layers {
		t.Run(row.Name, func(t *testing.T) {
			defer func() { Layers[i] = row }()
			Layers[i].Build = func(c *Chain, _ Config) (storage.Backend, error) {
				resp, err := c.Backend.Read(storage.Request{Name: f.names[0]})
				if err != nil {
					return nil, err
				}
				resp.Data.Release()
				return nil, errors.New("injected")
			}
			ch := &Chain{Env: conc.NewReal(), Pool: f.pool, Backend: f.mem}
			err := ch.Fold(f.everyRow(t))
			if err == nil || !strings.HasPrefix(err.Error(), row.Name+": ") {
				t.Fatalf("fold: %v, want the %s row's failure", err, row.Name)
			}
			if len(ch.Built) != i {
				t.Fatalf("built %v below the failing row %d", ch.Built, i)
			}
			f.audit(t)
		})
	}
}

// TestChainRetriesFailedReads runs the prefetcher over the folded
// resilient row, in virtual time, above a store that fails every second
// request: each failed read is retried through the resilient row and
// succeeds, so every sample is delivered byte-identical, with no pooled
// lease left once the stage is closed.
func TestChainRetriesFailedReads(t *testing.T) {
	f := newFixture(t, 16)
	s := sim.New()
	env := conc.NewSimEnv(s)
	var stats core.StageStats
	var injected int64
	s.Spawn("driver", func(*sim.Process) {
		faulty := storage.NewFaultyBackend(env, f.mem)
		faulty.FailEvery(2)
		r := storage.DefaultResilienceConfig()
		ch := &Chain{Env: env, Pool: f.pool, Backend: faulty}
		if err := ch.Fold(Config{Resilience: &r}); err != nil {
			t.Error(err)
			return
		}
		defer ch.Close()
		pf, err := core.NewPrefetcher(env, ch.Backend, f.manifest(), core.PrefetcherConfig{
			InitialProducers:      2,
			MaxProducers:          2,
			InitialBufferCapacity: len(f.names),
			MaxBufferCapacity:     len(f.names),
		})
		if err != nil {
			t.Error(err)
			return
		}
		st := core.NewStage(env, ch.Backend, pf)
		defer st.Close()
		st.SetChainStats(ch.Snapshot)
		if err := st.SubmitPlan(f.names); err != nil {
			t.Error(err)
			return
		}
		pf.Start()
		for i, name := range f.names {
			d, _, err := st.Read(core.ReadRequest{Name: name})
			same := bytes.Equal(d.Bytes, f.payloads[i])
			d.Release()
			if err != nil || !same {
				t.Errorf("read %s: %v (payload identical: %v)", name, err, same)
				return
			}
		}
		env.Sleep(time.Millisecond)
		stats, injected = st.Stats(), faulty.Injected()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if stats.PrefetchedFiles != int64(len(f.names)) || stats.ReadErrors != 0 {
		t.Fatalf("%d samples prefetched, %d read errors; want all %d, none", stats.PrefetchedFiles, stats.ReadErrors, len(f.names))
	}
	if injected == 0 || stats.Resilience.Retries != injected || stats.Resilience.Exhausted != 0 {
		t.Fatalf("%d faults injected, %d retries, %d exhausted: want every fault retried", injected, stats.Resilience.Retries, stats.Resilience.Exhausted)
	}
	f.audit(t)
}
