// Package chain is the storage chain above a leaf as one table, Layers, that
// every builder folds over its own leaf instead of calling the layers'
// constructors (DESIGN.md §26).
package chain

import (
	"fmt"
	"io"
	"os"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// Config is what the rows read. A row is on when its field is set (the
// hierarchy's: a positive FastCapacity), so the zero value turns all off.
type Config struct {
	TraceFile     string                    // the recorder's: Flush writes the I/O trace there, as device-read spans
	Hierarchy     tiering.Config            // one budget; a positive FastCapacity turns the row on
	Fast          *storage.Device           // the hierarchy's fast device (nil in real mode)
	WarmNextEpoch bool                      // epoch plans go to the hierarchy's warmer
	Resilience    *storage.ResilienceConfig // the retry and breaker wrapper's
}

// Layer is one row of the table: when cfg turns it on, and how it wraps the
// chain built so far. Build hands the chain's owner what the layer needs it
// to keep by adding to c.
type Layer struct {
	Name  string
	On    func(cfg Config) bool
	Build func(c *Chain, cfg Config) (storage.Backend, error)
}

// Chain is one fold of the table: what a build step attaches to its layer
// (the clock, the buffer pool — nil when pooling is off — and the tracer),
// the chain built so far, and what its layers hand the owner.
type Chain struct {
	Env     conc.Env
	Pool    *mempool.Pool
	Tracer  *obs.Tracer
	Backend storage.Backend // the leaf before Fold, the top of the chain after
	Built   []string        // the rows folded in, bottom-up

	closers []func()                            // undone newest first by Close
	stats   []func(*core.StageStats)            // each layer's part of a stage snapshot
	onPlan  []func(plan, live []dataset.Sample) // what sees every submitted epoch plan
	flush   []func() error                      // what Flush writes once the data plane is quiet
}

// Layers is the storage chain above the leaf, bottom-up. Its order has
// three reasons:
//   - the recorder is innermost, so the I/O trace sees only device reads
//     (the hierarchy's promotions and warms among them, its hits not);
//   - the memory hierarchy is under the resilient wrapper, so hits keep
//     flowing while the breaker sheds misses;
//   - the resilient wrapper is above both, so a retried read re-enters the
//     hierarchy and the trace.
var Layers = []Layer{
	{
		Name: "recorder",
		On:   func(cfg Config) bool { return cfg.TraceFile != "" },
		Build: func(c *Chain, cfg Config) (storage.Backend, error) {
			r := &recorder{env: c.Env, inner: c.Backend, mu: c.Env.NewMutex()}
			c.flush = append(c.flush, func() error { return WriteFile(cfg.TraceFile, "trace", r.write) })
			return r, nil
		},
	},
	{
		Name: "hierarchy",
		On:   func(cfg Config) bool { return cfg.Hierarchy.FastCapacity > 0 },
		Build: func(c *Chain, cfg Config) (storage.Backend, error) {
			tb, err := tiering.NewBackend(c.Env, cfg.Hierarchy, c.Backend, cfg.Fast)
			if err != nil {
				return nil, err
			}
			c.closers = append(c.closers, tb.Close)
			tb.SetBufferPool(c.Pool) // hit-path decode buffers
			tb.SetTracer(c.Tracer)
			c.stats = append(c.stats, func(s *core.StageStats) { s.Tiering, s.TieringEnabled = tb.Stats(), true })
			// A compressing hierarchy sizes the live plans at every
			// submission, before the warmer sees the new plan, so warm
			// admissions take the sizing's decision too.
			if cfg.Hierarchy.Compress {
				c.onPlan = append(c.onPlan, func(_, live []dataset.Sample) { tb.SizePlans(live) })
			}
			if cfg.WarmNextEpoch {
				c.onPlan = append(c.onPlan, func(plan, _ []dataset.Sample) { tb.PrefetchPlan(plan) })
			}
			return tb, nil
		},
	},
	{
		Name: "resilient",
		On:   func(cfg Config) bool { return cfg.Resilience != nil },
		Build: func(c *Chain, cfg Config) (storage.Backend, error) {
			rb, err := storage.NewResilientBackend(c.Env, c.Backend, *cfg.Resilience)
			if err != nil {
				return nil, err
			}
			c.stats = append(c.stats, func(s *core.StageStats) { s.Resilience = rb.ResilienceStats() })
			return rb, nil
		},
	},
}

// Fold wraps c.Backend in every row of Layers that cfg turns on, bottom-up.
// A row that fails closes the rows below it.
func (c *Chain) Fold(cfg Config) error {
	for _, l := range Layers {
		if !l.On(cfg) {
			continue
		}
		b, err := l.Build(c, cfg)
		if err != nil {
			c.Close()
			return fmt.Errorf("%s: %w", l.Name, err)
		}
		c.Backend = b
		c.Built = append(c.Built, l.Name)
	}
	return nil
}

// Close undoes the folded rows, newest first. The leaf is its owner's to
// close; a second Close does nothing.
func (c *Chain) Close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// Snapshot fills in every layer's part of a stage snapshot
// (core.Stage.SetChainStats).
func (c *Chain) Snapshot(s *core.StageStats) {
	for _, f := range c.stats {
		f(s)
	}
}

// WatchesPlans reports whether any layer watches submitted plans: without
// one, Plan does nothing and the stage need not hook it.
func (c *Chain) WatchesPlans() bool { return len(c.onPlan) > 0 }

// Plan shows a submitted epoch plan and the live set after it to every
// layer that watches plans (core.Stage.SetEpochPlanHook).
func (c *Chain) Plan(plan, live []dataset.Sample) {
	for _, f := range c.onPlan {
		f(plan, live)
	}
}

// Flush writes what the layers keep until the data plane is quiet (the I/O
// trace) and reports the first error.
func (c *Chain) Flush() error {
	var first error
	for _, f := range c.flush {
		if err := f(); first == nil {
			first = err
		}
	}
	return first
}

// WriteFile creates path and writes what into it.
func WriteFile(path, what string, write func(io.Writer) error) error {
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

// recorder is the recorder row: one device-read span per read that passes
// it, kept in completion order until Flush writes them. Payload ownership
// and the trace context flow through it untouched.
type recorder struct {
	env   conc.Env
	inner storage.Backend

	mu    conc.Mutex
	spans []obs.Span
}

func (r *recorder) Read(req storage.Request) (storage.Response, error) {
	start := r.env.Now()
	resp, err := r.inner.Read(req)
	sp := obs.Span{Stage: obs.StageDeviceRead, Name: req.Name, At: start, Latency: r.env.Now() - start}
	if err != nil {
		sp.Error = err.Error()
	} else {
		sp.Size = resp.Data.Size
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return resp, err
}

func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return obs.WriteSpans(w, r.spans)
}
