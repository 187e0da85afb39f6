package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// AttributionConfig parameterizes one attribution cell: a full data plane
// (prefetcher + sharded buffer + stage) driven by a single consumer over a
// synthetic dataset with a bimodal read-latency pattern, in the
// deterministic simulator. The pattern makes the critical path obvious by
// construction, so the report's shares can be asserted, not just eyeballed.
type AttributionConfig struct {
	// Producers is the prefetching thread count t.
	Producers int
	// BufferCap is the buffer capacity N.
	BufferCap int
	// Consume is the consumer's per-sample compute time (0 = consume
	// instantly, i.e. the consumer is pure demand).
	Consume time.Duration
	// Files is the plan length (default 240).
	Files int
	// SlowEvery marks every SlowEvery-th file as slow (default 8).
	SlowEvery int
	// SlowLatency and FastLatency are the two read-latency modes
	// (defaults 5ms and 100us).
	SlowLatency time.Duration
	FastLatency time.Duration
	// Sampling is the lifecycle-trace head-sampling probability
	// (default 1: trace everything, the cell is small).
	Sampling float64
	// Seed namespaces trace ids and drives the sampling decision.
	Seed int64
}

// withDefaults fills zero values.
func (c AttributionConfig) withDefaults() AttributionConfig {
	if c.Producers == 0 {
		c.Producers = 1
	}
	if c.BufferCap == 0 {
		c.BufferCap = 64
	}
	if c.Files == 0 {
		c.Files = 240
	}
	if c.SlowEvery == 0 {
		c.SlowEvery = 8
	}
	if c.SlowLatency == 0 {
		c.SlowLatency = 5 * time.Millisecond
	}
	if c.FastLatency == 0 {
		c.FastLatency = 100 * time.Microsecond
	}
	if c.Sampling == 0 {
		c.Sampling = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// AttributionCell is one measured (t, N) setting.
type AttributionCell struct {
	Label    string
	Config   AttributionConfig
	Makespan time.Duration
	// Attrib is the always-on counter-based report (what /attribution and
	// the autotuner's decision log see).
	Attrib obs.Attribution
	// Spans is the sampled lifecycle span stream (what SpanFile /
	// prisma-trace attribute see).
	Spans []obs.Span
}

// patternBackend serves the bimodal synthetic dataset: every SlowEvery-th
// file takes SlowLatency, the rest FastLatency. Reads from concurrent
// producers overlap in virtual time (the device is not a bottleneck — the
// per-file latency is).
type patternBackend struct {
	env  conc.Env
	lat  map[string]time.Duration
	size int64
}

func newPatternBackend(env conc.Env, cfg AttributionConfig) *patternBackend {
	b := &patternBackend{env: env, lat: make(map[string]time.Duration, cfg.Files), size: 4096}
	for i := 0; i < cfg.Files; i++ {
		d := cfg.FastLatency
		if i%cfg.SlowEvery == 0 {
			d = cfg.SlowLatency
		}
		b.lat[attributionName(i)] = d
	}
	return b
}

func attributionName(i int) string { return fmt.Sprintf("s%05d", i) }

func (b *patternBackend) Read(req storage.Request) (storage.Response, error) {
	d, ok := b.lat[req.Name]
	if !ok {
		return storage.Response{}, fmt.Errorf("patternBackend: unknown file %q", req.Name)
	}
	b.env.Sleep(d)
	return storage.Response{Data: storage.Data{Name: req.Name, Size: b.size}}, nil
}

// RunAttributionCell runs one epoch of the synthetic workload at the given
// (t, N, consume) setting and returns both attribution views: the always-on
// counter-based report and the sampled span stream. Deterministic: same
// config, same virtual-time result, byte-identical spans.
func RunAttributionCell(label string, cfg AttributionConfig) (AttributionCell, error) {
	cfg = cfg.withDefaults()
	cell := AttributionCell{Label: label, Config: cfg}
	s := sim.New()
	env := conc.NewSimEnv(s)
	var runErr error
	s.Spawn("attribution-cell", func(*sim.Process) {
		backend := newPatternBackend(env, cfg)
		names := make([]string, cfg.Files)
		for i := range names {
			names[i] = attributionName(i)
		}
		tracer := obs.NewTracer(env, obs.TracerOptions{Sampling: cfg.Sampling, Seed: cfg.Seed})
		st, err := core.NewStage(env, backend, uniformManifest(names, backend.size), core.StageConfig{
			InitialProducers:      cfg.Producers,
			MaxProducers:          cfg.Producers,
			InitialBufferCapacity: cfg.BufferCap,
			MaxBufferCapacity:     cfg.BufferCap,
			BufferShards:          1,
			Tracer:                tracer,
		})
		if err != nil {
			runErr = err
			return
		}
		st.Start()
		defer st.Close()

		if err := st.SubmitPlan(names); err != nil {
			runErr = err
			return
		}
		start := st.Stats()
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				runErr = fmt.Errorf("read %s: %w", n, err)
				return
			}
			if cfg.Consume > 0 {
				env.Sleep(cfg.Consume)
			}
		}
		stats := st.Stats()
		cell.Makespan = stats.Now - start.Now
		cell.Attrib = stats.Attribution(start, 1)
		cell.Spans = tracer.Spans()
	})
	if err := s.Run(); err != nil {
		return cell, fmt.Errorf("attribution cell %s: simulation wedged: %w", label, err)
	}
	return cell, runErr
}

// AttributionSettings returns the two canonical cells of the latency
// attribution demonstration (plus a balanced reference): the same dataset
// is storage-bound at (t=1, N=64) and buffer-capacity-bound at (t=8, N=1),
// and the report's dominant share moves accordingly.
func AttributionSettings() []struct {
	Label string
	Cfg   AttributionConfig
} {
	return []struct {
		Label string
		Cfg   AttributionConfig
	}{
		{"storage-bound t=1 N=64", AttributionConfig{Producers: 1, BufferCap: 64}},
		{"buffer-bound  t=8 N=1", AttributionConfig{Producers: 8, BufferCap: 1, Consume: 350 * time.Microsecond}},
		{"balanced      t=8 N=64", AttributionConfig{Producers: 8, BufferCap: 64, Consume: 350 * time.Microsecond}},
	}
}

// RunAttributionDemo runs the canonical settings and returns the cells.
func RunAttributionDemo(report func(string)) ([]AttributionCell, error) {
	settings := AttributionSettings()
	cells := make([]AttributionCell, 0, len(settings))
	for _, s := range settings {
		cell, err := RunAttributionCell(s.Label, s.Cfg)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
		if report != nil {
			report(fmt.Sprintf("attribution %-24s makespan=%-12v storage=%.1f%% buffer-full=%.1f%% consumer=%.1f%%",
				cell.Label, cell.Makespan.Round(time.Microsecond),
				cell.Attrib.StorageShare*100, cell.Attrib.BufferFullShare*100, cell.Attrib.ConsumerShare*100))
		}
	}
	return cells, nil
}

// RenderAttribution prints the cells as the usual text table.
func RenderAttribution(w io.Writer, title string, cells []AttributionCell) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			c.Label,
			fmt.Sprintf("t=%d", c.Config.Producers),
			fmt.Sprintf("N=%d", c.Config.BufferCap),
			c.Makespan.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", c.Attrib.StorageShare*100),
			fmt.Sprintf("%.1f%%", c.Attrib.BufferFullShare*100),
			fmt.Sprintf("%.1f%%", c.Attrib.ConsumerShare*100),
			fmt.Sprint(len(c.Spans)),
		})
	}
	return WriteTable(w, []string{"setting", "t", "N", "makespan", "storage", "buffer-full", "consumer", "spans"}, rows)
}
