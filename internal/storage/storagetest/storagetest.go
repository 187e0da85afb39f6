// Package storagetest is the middleware conformance suite for the storage
// read contract (DESIGN.md §18): every layer that wraps a storage.Backend
// runs Middleware from a test, alone over a probe leaf, and must hand every
// read through unchanged — same bytes, same trace context and manifest
// slot, same Detail, same errors, no leaked references. Each row of chain.Layers has
// its cases in rowCases (internal/storage/contract_test.go); an unexported
// wrapper calls Middleware from its own package's tests.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// Content is the probe file's payload: distinct-ish bytes so copying
// errors show up as mismatches, in runs long enough to LZ-compress (the
// tier's Compress row must take its compressed path).
func Content() []byte {
	buf := make([]byte, FileSize)
	for i := range buf {
		buf[i] = byte(i >> 6)
	}
	return buf
}

// The other files of the probe's dataset, each an edge of what a whole-
// sample read must serve.
const (
	// EmptyName is a zero-byte sample.
	EmptyName = "empty"
	// OtherName has FileName's size and different bytes, so a layer that
	// serves one sample's payload for another's name is caught.
	OtherName = "g"
	// NoiseName is FileSize bytes that do not LZ-compress: the tier's
	// Compress row must keep it raw.
	NoiseName = "noise"
	// BigName is larger than the 1 MiB fast-tier budgets of the conformance
	// rows, so every tier declines it.
	BigName = "big"
	// NestedName sits in a subdirectory of the dataset.
	NestedName = "d/h"
)

// Files is the probe's dataset, name → payload: Content under FileName
// and the edge files above.
func Files() map[string][]byte {
	other := Content()
	for i := range other {
		other[i] ^= 0xa5
	}
	noise := make([]byte, FileSize)
	rand.New(rand.NewSource(1)).Read(noise)
	big := make([]byte, 1<<20+FileSize)
	for i := range big {
		big[i] = byte(i >> 9)
	}
	nested := Content()[:FileSize/2]
	return map[string][]byte{
		FileName:   Content(),
		EmptyName:  {},
		OtherName:  other,
		NoiseName:  noise,
		BigName:    big,
		NestedName: nested,
	}
}

// Names is the dataset's names in manifest order (sorted, as
// dataset.FromDir lists them): a request's Slot is a position here + 1.
func Names() []string {
	var names []string
	for n := range Files() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// slotOf is name's Slot in Names.
func slotOf(name string) int { return sort.SearchStrings(Names(), name) + 1 }

// Fill adds Files to mem.
func Fill(mem *storage.MemBackend) {
	for n, b := range Files() {
		mem.Add(n, b)
	}
}

// WriteDir writes Files under dir.
func WriteDir(t testing.TB, dir string) {
	t.Helper()
	for n, b := range Files() {
		path := filepath.Join(dir, filepath.FromSlash(n))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Probe is the leaf under test layers: a pooled MemBackend holding Files
// that records what reached it.
type Probe struct {
	mem *storage.MemBackend
	// Calls counts requests that reached the leaf; Ctx and Slot are the
	// trace context and manifest slot of the last one.
	Calls int
	Ctx   obs.Ctx
	Slot  int
}

// ProbeDetail is stamped on every response the probe serves, so a layer
// that drops Detail on the way up is caught.
var ProbeDetail = storage.ReadDetail{Attempts: 7, Breaker: "probe"}

// NewProbe builds a probe whose payloads come from pool.
func NewProbe(pool *mempool.Pool) *Probe {
	mem := storage.NewMemBackend()
	Fill(mem)
	mem.SetBufferPool(pool)
	return &Probe{mem: mem}
}

// Read implements storage.Backend.
func (p *Probe) Read(req storage.Request) (storage.Response, error) {
	p.Calls++
	p.Ctx, p.Slot = req.Ctx, req.Slot
	resp, err := p.mem.Read(req)
	resp.Detail = ProbeDetail
	return resp, err
}

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
	// instead of passing the leaf's up.
	Resilience func() storage.ResilienceStats
}

// Layer names a wrapper and builds a fresh instance over leaf. pool is the
// pool the leaf allocates from, for layers that allocate payloads of their
// own (the tier's decode buffers).
type Layer struct {
	Name  string
	Build func(t *testing.T, env conc.Env, leaf storage.Backend, pool *mempool.Pool) Built
}

// class is one case of the table: a whole-sample read of a file the probe
// holds, or of a name it does not.
type class struct {
	name string
	file string
	// slot is the request's manifest Slot: 0 (unresolved), name's own, or
	// a hint naming another file or lying past the manifest. Whatever it
	// says, the read serves file, and every wrapper passes it down
	// unchanged.
	slot int
	// warm, when set, is read and released before the passes, so another
	// sample has been served when file is first read.
	warm string
	// hold keeps the first pass's payload while the second is read and
	// released: two references to one sample must stay independent.
	hold    bool
	wantErr func(error) bool // nil = must succeed
}

func classes() []class {
	var ne *storage.NotExistError
	notExist := func(err error) bool { return errors.As(err, &ne) }
	return []class{
		{name: "whole", file: FileName},
		{name: "empty", file: EmptyName},
		{name: "noise", file: NoiseName},
		{name: "big", file: BigName},
		{name: "nested", file: NestedName},
		{name: "after-other", file: FileName, warm: OtherName},
		{name: "held", file: FileName, hold: true},
		{name: "slot", file: FileName, slot: slotOf(FileName)},
		// The hint names a file already served (and, on a pinning leaf,
		// pinned): it must not be served in FileName's place.
		{name: "stale-slot", file: FileName, slot: slotOf(OtherName), warm: OtherName},
		{name: "slot-past-end", file: FileName, slot: 1 << 20},
		{name: "missing", file: "ghost", wantErr: notExist},
		// Names a socket client can send and no dataset holds: the leaf
		// answers them as unknown files, and no layer makes them anything
		// else.
		{name: "escape", file: "../" + FileName, wantErr: notExist},
		{name: "absolute", file: "/" + FileName, wantErr: notExist},
	}
}

// Middleware runs the conformance table over layer: every class × {unsampled,
// sampled ctx}, each against a fresh instance (so the first request always
// reaches the leaf) and issued twice (so hit paths are compared too).
func Middleware(t *testing.T, layer Layer) {
	t.Helper()
	files := Files()
	for _, c := range classes() {
		for _, ctx := range []obs.Ctx{{}, {Trace: 42, Sampled: true}} {
			c, ctx := c, ctx
			t.Run(fmt.Sprintf("%s/%s/sampled=%v", layer.Name, c.name, ctx.Sampled), func(t *testing.T) {
				run(t, layer, func(b Built, probe *Probe) {
					if c.warm != "" {
						resp, err := b.Backend.Read(storage.Request{Name: c.warm, Ctx: ctx})
						if err != nil {
							t.Fatalf("read of %q: %v", c.warm, err)
						}
						checkPayload(t, files[c.warm], resp)
						resp.Data.Release()
					}
					var held storage.Response
					for pass := 0; pass < 2; pass++ {
						before := probe.Calls
						resp, err := b.Backend.Read(storage.Request{Name: c.file, Ctx: ctx, Slot: c.slot})
						reached := probe.Calls > before
						if pass == 0 && !reached {
							t.Fatalf("first request never reached the leaf")
						}
						if reached && probe.Ctx != ctx {
							t.Fatalf("pass %d: leaf saw ctx %+v, want the ctx that entered %+v", pass, probe.Ctx, ctx)
						}
						if reached && probe.Slot != c.slot {
							t.Fatalf("pass %d: leaf saw slot %d, want the slot that entered %d", pass, probe.Slot, c.slot)
						}
						if c.wantErr != nil {
							if !c.wantErr(err) {
								t.Fatalf("pass %d: err = %v, want the leaf's typed failure", pass, err)
							}
							if resp.Data.Ref != nil {
								t.Fatalf("pass %d: failed request carried a reference", pass)
							}
							continue
						}
						if err != nil {
							t.Fatalf("pass %d: %v", pass, err)
						}
						checkPayload(t, files[c.file], resp)
						if reached {
							switch {
							case b.Resilience != nil && resp.Detail.Attempts != 1:
								t.Fatalf("pass %d: resilient Detail = %+v, want 1 attempt", pass, resp.Detail)
							case b.Resilience == nil && resp.Detail != ProbeDetail:
								t.Fatalf("pass %d: Detail = %+v, want the leaf's %+v passed up", pass, resp.Detail, ProbeDetail)
							}
						}
						if c.hold && pass == 0 {
							held = resp
							continue
						}
						resp.Data.Release()
					}
					if c.hold {
						checkPayload(t, files[c.file], held)
						held.Data.Release()
					}
				})
			})
		}
	}
}

// Leaf runs the table against a leaf backend — no probe below it, so what
// is checked is the answer itself: the payload, the typed failure, and zero
// pooled refs outstanding afterwards. build returns a leaf holding Files
// (Fill, WriteDir); pool is nil for the unpooled rows.
func Leaf(t *testing.T, name string, pooled bool, build func(t *testing.T, pool *mempool.Pool) storage.Backend) {
	t.Helper()
	files := Files()
	for _, c := range classes() {
		c := c
		t.Run(fmt.Sprintf("%s/pooled=%v/%s", name, pooled, c.name), func(t *testing.T) {
			audit := mempool.New(mempool.Config{Debug: true})
			var pool *mempool.Pool
			if pooled {
				pool = audit
			}
			b := build(t, pool)
			if c.warm != "" {
				resp, err := b.Read(storage.Request{Name: c.warm})
				if err != nil {
					t.Fatalf("read of %q: %v", c.warm, err)
				}
				checkPayload(t, files[c.warm], resp)
				resp.Data.Release()
			}
			var held storage.Response
			for pass := 0; pass < 2; pass++ {
				resp, err := b.Read(storage.Request{Name: c.file, Slot: c.slot})
				if c.wantErr != nil {
					if !c.wantErr(err) {
						t.Fatalf("pass %d: err = %v, want the typed failure", pass, err)
					}
					if resp.Data.Ref != nil {
						t.Fatalf("pass %d: failed request carried ref %v", pass, resp.Data.Ref)
					}
					continue
				}
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				checkPayload(t, files[c.file], resp)
				if got := resp.Data.Ref != nil; got != pooled {
					t.Fatalf("pass %d: payload pooled = %v, want %v", pass, got, pooled)
				}
				if c.hold && pass == 0 {
					held = resp
					continue
				}
				resp.Data.Release()
			}
			if c.hold {
				checkPayload(t, files[c.file], held)
				held.Data.Release()
			}
			if n := audit.Outstanding(); n != 0 {
				t.Fatalf("%d pooled refs outstanding: %v", n, audit.Leaks())
			}
		})
	}
}

// run builds a fresh probe and layer inside a simulation, runs body, and
// audits the pool.
func run(t *testing.T, layer Layer, body func(Built, *Probe)) {
	t.Helper()
	pool := mempool.New(mempool.Config{Debug: true})
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("conformance", func(*sim.Process) {
		probe := NewProbe(pool)
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

// checkPayload compares resp with want, what the bare leaf serves.
func checkPayload(t *testing.T, want []byte, resp storage.Response) {
	t.Helper()
	if resp.Data.Size != int64(len(want)) || !bytes.Equal(resp.Data.Bytes, want) {
		t.Fatalf("payload differs from the leaf's (%d bytes, want %d)", resp.Data.Size, len(want))
	}
}
