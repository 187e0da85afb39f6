// Package storagetest is the middleware conformance suite for the storage
// read contract (DESIGN.md §18): every layer that wraps a storage.Backend
// runs Middleware from a test, alone over a probe leaf, and must hand every
// request class through unchanged — same bytes, same trace context, same
// Detail, same errors, no leaked references. Each row of chain.Layers has
// its cases in rowCases (internal/storage/contract_test.go); an unexported
// wrapper calls Middleware from its own package's tests.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// FileName and FileSize describe the one file the probe leaf holds.
const (
	FileName = "f"
	FileSize = 4096
)

// Content is the probe file's payload: distinct-ish bytes so slicing
// errors show up as mismatches, in runs long enough to LZ-compress (the
// tier's Compress row must take its compressed path).
func Content() []byte {
	buf := make([]byte, FileSize)
	for i := range buf {
		buf[i] = byte(i >> 6)
	}
	return buf
}

// Probe is the leaf under test layers: a pooled MemBackend holding
// Content under FileName that records what reached it.
type Probe struct {
	mem *storage.MemBackend
	// Rangeless makes the probe answer ranged requests with
	// storage.ErrUnsupported, like a store that only knows whole samples.
	Rangeless bool
	// Calls counts requests that reached the leaf; Ctx is the trace
	// context of the last one.
	Calls int
	Ctx   obs.Ctx
}

// ProbeDetail is stamped on every response the probe serves, so a layer
// that drops Detail on the way up is caught.
var ProbeDetail = storage.ReadDetail{Attempts: 7, Breaker: "probe"}

// NewProbe builds a probe whose payloads come from pool.
func NewProbe(pool *mempool.Pool) *Probe {
	mem := storage.NewMemBackend()
	mem.Add(FileName, Content())
	mem.SetBufferPool(pool)
	return &Probe{mem: mem}
}

// Read implements storage.Backend.
func (p *Probe) Read(req storage.Request) (storage.Response, error) {
	p.Calls++
	p.Ctx = req.Ctx
	if p.Rangeless && len(req.Ranges) > 0 {
		return storage.Response{}, fmt.Errorf("probe: %w", storage.ErrUnsupported)
	}
	resp, err := p.mem.Read(req)
	resp.Detail = ProbeDetail
	return resp, err
}

// Size implements storage.Backend.
func (p *Probe) Size(name string) (int64, error) { return p.mem.Size(name) }

// OpenDir opens a storage.DirBackend over dir, closed when the test ends.
func OpenDir(t testing.TB, dir string) *storage.DirBackend {
	t.Helper()
	b, err := storage.NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// Built is one constructed layer under test.
type Built struct {
	Backend storage.Backend
	// Close, when non-nil, releases the layer's residents before the leak
	// audit.
	Close func()
	// Resilience is non-nil for a resilient layer: it stamps its own Detail
	// instead of passing the leaf's up, and counts UnsupportedOps.
	Resilience func() storage.ResilienceStats
}

// Layer names a wrapper and builds a fresh instance over leaf. pool is the
// pool the leaf allocates from, for layers that allocate payloads of their
// own (the tier's decode buffers).
type Layer struct {
	Name  string
	Build func(t *testing.T, env conc.Env, leaf storage.Backend, pool *mempool.Pool) Built
}

// class is one request class of the table.
type class struct {
	name    string
	file    string
	ranges  []storage.Range
	wantErr func(error) bool // nil = must succeed
}

func classes() []class {
	var ne *storage.NotExistError
	return []class{
		{name: "whole", file: FileName},
		{name: "one-range", file: FileName, ranges: []storage.Range{{Off: 100, N: 200}}},
		{name: "k-ranges", file: FileName, ranges: []storage.Range{{Off: 0, N: 100}, {Off: 500, N: 250}, {Off: 4000, N: 500}}},
		{name: "past-eof", file: FileName, ranges: []storage.Range{{Off: 5000, N: 10}}},
		// Views come back in range order, whatever the order and overlap of
		// the ranges: one region serves them all.
		{name: "unordered", file: FileName, ranges: []storage.Range{{Off: 3000, N: 100}, {Off: 0, N: 200}, {Off: 150, N: 100}}},
		{name: "zero-length", file: FileName, ranges: []storage.Range{{Off: 100, N: 0}, {Off: 200, N: 10}}},
		{name: "negative", file: FileName, ranges: []storage.Range{{Off: 0, N: 10}, {Off: 5, N: -1}},
			wantErr: func(err error) bool {
				return err != nil && !errors.Is(err, storage.ErrUnsupported) && !errors.As(err, &ne)
			}},
		{name: "missing", file: "ghost", wantErr: func(err error) bool { return errors.As(err, &ne) }},
	}
}

// Middleware runs the conformance table over layer: request classes
// {whole, 1 range, K ranges, past-EOF, unordered and overlapping ranges, a
// zero-length range, negative, missing name} × {unsampled, sampled ctx},
// each against a fresh instance (so the first request always reaches the
// leaf) and issued twice (so hit paths are compared too), plus one ranged
// request over a rangeless leaf.
func Middleware(t *testing.T, layer Layer) {
	t.Helper()
	for _, c := range classes() {
		for _, ctx := range []obs.Ctx{{}, {Trace: 42, Sampled: true}} {
			c, ctx := c, ctx
			t.Run(fmt.Sprintf("%s/%s/sampled=%v", layer.Name, c.name, ctx.Sampled), func(t *testing.T) {
				run(t, layer, false, func(b Built, probe *Probe) {
					for pass := 0; pass < 2; pass++ {
						before := probe.Calls
						scratch := []storage.Data{{Name: "sentinel"}}
						req := storage.Request{Name: c.file, Ranges: c.ranges, Out: scratch, Ctx: ctx}
						resp, err := b.Backend.Read(req)
						reached := probe.Calls > before
						if pass == 0 && !reached {
							t.Fatalf("first request never reached the leaf")
						}
						if reached && probe.Ctx != ctx {
							t.Fatalf("pass %d: leaf saw ctx %+v, want the ctx that entered %+v", pass, probe.Ctx, ctx)
						}
						if c.wantErr != nil {
							if !c.wantErr(err) {
								t.Fatalf("pass %d: err = %v, want the leaf's typed failure", pass, err)
							}
							if n := len(resp.Ranged(req)); n != 0 {
								t.Fatalf("pass %d: failed request carried %d views", pass, n)
							}
							continue
						}
						if err != nil {
							t.Fatalf("pass %d: %v", pass, err)
						}
						checkPayload(t, c, req, resp)
						if reached {
							switch {
							case b.Resilience != nil && resp.Detail.Attempts != 1:
								t.Fatalf("pass %d: resilient Detail = %+v, want 1 attempt", pass, resp.Detail)
							case b.Resilience == nil && resp.Detail != ProbeDetail:
								t.Fatalf("pass %d: Detail = %+v, want the leaf's %+v passed up", pass, resp.Detail, ProbeDetail)
							}
						}
						resp.Release(req)
					}
				})
			})
		}
	}
	t.Run(layer.Name+"/unsupported", func(t *testing.T) {
		run(t, layer, true, func(b Built, probe *Probe) {
			req := storage.Request{Name: FileName, Ranges: []storage.Range{{Off: 0, N: 10}}}
			if _, err := b.Backend.Read(req); !errors.Is(err, storage.ErrUnsupported) {
				t.Fatalf("ranged read over a rangeless leaf: err = %v, want ErrUnsupported", err)
			}
			if b.Resilience != nil {
				if st := b.Resilience(); st.UnsupportedOps != 1 || st.Retries != 0 || st.Degraded {
					t.Fatalf("resilience after one unsupported request = %+v, want UnsupportedOps 1, no retry, breaker closed", st)
				}
			}
			// Whole-file requests still pass.
			whole := storage.Request{Name: FileName}
			resp, err := b.Backend.Read(whole)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release(whole)
		})
	})
}

// Leaf runs the request-class table against a leaf backend — no probe
// below it, so what is checked is the answer itself: the payload of every
// class, the typed failures, views appended behind the caller's prefix, and
// zero pooled refs outstanding afterwards. build returns a leaf holding
// Content under FileName; pool is nil for the unpooled rows.
func Leaf(t *testing.T, name string, pooled bool, build func(t *testing.T, pool *mempool.Pool) storage.Backend) {
	t.Helper()
	for _, c := range classes() {
		c := c
		t.Run(fmt.Sprintf("%s/pooled=%v/%s", name, pooled, c.name), func(t *testing.T) {
			audit := mempool.New(mempool.Config{Debug: true})
			var pool *mempool.Pool
			if pooled {
				pool = audit
			}
			b := build(t, pool)
			for pass := 0; pass < 2; pass++ {
				req := storage.Request{Name: c.file, Ranges: c.ranges, Out: []storage.Data{{Name: "sentinel"}}}
				resp, err := b.Read(req)
				if c.wantErr != nil {
					if !c.wantErr(err) {
						t.Fatalf("pass %d: err = %v, want the typed failure", pass, err)
					}
					if n := len(resp.Ranged(req)); n != 0 || resp.Data.Ref != nil {
						t.Fatalf("pass %d: failed request carried %d views, ref %v", pass, n, resp.Data.Ref)
					}
					continue
				}
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				checkPayload(t, c, req, resp)
				if got := resp.Data.Ref != nil || (len(c.ranges) > 0 && resp.Views[1].Ref != nil); got != pooled {
					t.Fatalf("pass %d: payload pooled = %v, want %v", pass, got, pooled)
				}
				resp.Release(req)
			}
			if n := audit.Outstanding(); n != 0 {
				t.Fatalf("%d pooled refs outstanding: %v", n, audit.Leaks())
			}
		})
	}
}

// run builds a fresh probe and layer inside a simulation, runs body, and
// audits the pool.
func run(t *testing.T, layer Layer, rangeless bool, body func(Built, *Probe)) {
	t.Helper()
	pool := mempool.New(mempool.Config{Debug: true})
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("conformance", func(*sim.Process) {
		probe := NewProbe(pool)
		probe.Rangeless = rangeless
		b := layer.Build(t, env, probe, pool)
		body(b, probe)
		if b.Close != nil {
			b.Close()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// checkPayload compares resp with what the bare leaf serves for c.
func checkPayload(t *testing.T, c class, req storage.Request, resp storage.Response) {
	t.Helper()
	content := Content()
	if len(c.ranges) == 0 {
		if resp.Data.Size != FileSize || !bytes.Equal(resp.Data.Bytes, content) {
			t.Fatalf("whole-file payload differs from the leaf's (%d bytes)", resp.Data.Size)
		}
		return
	}
	if len(resp.Views) != 1+len(c.ranges) || resp.Views[0].Name != "sentinel" {
		t.Fatalf("Views has %d entries, want the caller's prefix plus %d views", len(resp.Views), len(c.ranges))
	}
	for i, v := range resp.Ranged(req) {
		want := c.ranges[i].Clamp(FileSize)
		if v.Size != want.N || !bytes.Equal(v.Bytes, content[want.Off:want.Off+want.N]) {
			t.Fatalf("view %d (%+v): %d bytes, differs from the leaf's %d", i, c.ranges[i], v.Size, want.N)
		}
	}
}
