package prisma

import (
	"fmt"
	"io"
	"os"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
	"github.com/dsrhaslab/prisma-go/internal/trace"
)

// chainLayer is one row of the storage chain above the directory leaf: when
// Options turn it on, and how it wraps the chain built so far. build hands
// the instance what the layer needs it to keep by adding to c.
type chainLayer struct {
	name    string
	enabled func(Options) bool
	build   func(c *chain, opts Options) (storage.Backend, error)
}

// chain is one fold of the table: what a build step attaches to its layer
// (the instance's clock, buffer pool — nil when pooling is off — and
// tracer), the chain built so far, and what its layers hand the instance.
type chain struct {
	env      conc.Env
	pool     *mempool.Pool
	tracer   *obs.Tracer
	teardown *closers // a layer's closer goes on as the layer comes up

	backend storage.Backend
	built   []string                 // the rows folded in, bottom-up
	stats   []func(*core.StageStats) // each layer's part of a stage snapshot
	onPlan  []func(names []string)   // what sees every submitted epoch plan
	flush   []func() error           // what Close writes once the data plane is quiet
}

// chainLayers is the storage chain above the directory leaf, bottom-up. Open
// and every test of the chain fold this one table, whose order has three
// reasons:
//   - the recorder is innermost, so the I/O trace sees only device reads
//     (the hierarchy's promotions and warms among them, its hits not);
//   - the memory hierarchy is under the resilient wrapper, so hits keep
//     flowing while the breaker sheds misses;
//   - the resilient wrapper is outermost, so a retried read re-enters the
//     hierarchy and the trace.
var chainLayers = []chainLayer{
	{
		name:    "recorder",
		enabled: func(o Options) bool { return o.TraceFile != "" },
		build: func(c *chain, o Options) (storage.Backend, error) {
			r := trace.NewRecorder(c.env, c.backend)
			c.flush = append(c.flush, func() error { return writeFile(o.TraceFile, "trace", r.Trace().Write) })
			return r, nil
		},
	},
	{
		name: "hierarchy",
		enabled: func(o Options) bool {
			return o.Tiering.Enable || (o.Tenancy.Enable && o.Tenancy.SharedCacheBytes > 0)
		},
		build: func(c *chain, o Options) (storage.Backend, error) {
			// One budget, the sum of the tier's and the shared cache's. The
			// shared cache's part is the recency window, which keeps every miss
			// raw and LRU, so a job trailing another over the same dataset finds
			// what it just read; the tier's part follows the tier's promotion
			// threshold, admission rule and compression.
			cfg := tiering.Config{PromoteAfter: 1}
			if o.Tenancy.Enable {
				cfg.FastCapacity, cfg.Window = o.Tenancy.SharedCacheBytes, o.Tenancy.SharedCacheBytes
			}
			if o.Tiering.Enable {
				cfg.FastCapacity += o.Tiering.CapacityBytes
				cfg.PromoteAfter = o.Tiering.PromoteAfter
				cfg.MaxTracked = o.Tiering.MaxTrackedNames
				cfg.Compress = o.Tiering.Compress
			}
			tb, err := tiering.NewBackend(c.env, cfg, c.backend, nil)
			if err != nil {
				return nil, err
			}
			c.teardown.push(noErr(tb.Close))
			tb.SetBufferPool(c.pool) // hit-path decode buffers
			tb.SetTracer(c.tracer)
			c.stats = append(c.stats, func(s *core.StageStats) { s.Tiering, s.TieringEnabled = tb.Stats(), true })
			if o.Tiering.Enable && o.Tiering.PrefetchNextEpoch {
				c.onPlan = append(c.onPlan, tb.PrefetchPlan)
			}
			return tb, nil
		},
	},
	{
		name:    "resilient",
		enabled: func(o Options) bool { return !o.DisableResilience },
		build: func(c *chain, o Options) (storage.Backend, error) {
			cfg := storage.DefaultResilienceConfig()
			cfg.MaxAttempts = o.ReadRetries
			cfg.BaseBackoff = o.RetryBackoff
			cfg.ReadDeadline = o.ReadDeadline
			cfg.BreakerCooldown = o.BreakerCooldown
			cfg.BreakerThreshold = max(o.BreakerThreshold, 0) // -1: retries without a breaker
			rb, err := storage.NewResilientBackend(c.env, c.backend, cfg)
			if err != nil {
				return nil, err
			}
			c.stats = append(c.stats, func(s *core.StageStats) { s.Resilience = rb.ResilienceStats() })
			return rb, nil
		},
	},
}

// fold wraps c.backend in every row of layers that opts turns on,
// bottom-up. A row that fails leaves the layers below it for c.teardown to
// undo.
func (c *chain) fold(layers []chainLayer, opts Options) error {
	for _, l := range layers {
		if !l.enabled(opts) {
			continue
		}
		b, err := l.build(c, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		c.backend = b
		c.built = append(c.built, l.name)
	}
	return nil
}

// snapshot fills in every layer's part of a stage snapshot.
func (c *chain) snapshot(s *core.StageStats) {
	for _, f := range c.stats {
		f(s)
	}
}

// plan shows a submitted epoch plan to every layer that watches plans.
func (c *chain) plan(names []string) {
	for _, f := range c.onPlan {
		f(names)
	}
}

// writeFile creates path and writes what into it.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("prisma: %s: %w", what, err)
	}
	return nil
}
