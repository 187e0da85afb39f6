package storage

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// Data is the result of reading a file through a Backend. Modeled backends
// carry no payload (Bytes is nil); real backends return the file contents.
//
// When Ref is non-nil, Bytes aliases a pooled buffer and the holder of the
// Data owns exactly one reference: passing the Data on transfers that
// reference, and whoever drops the Data without passing it on must call
// Release (DESIGN.md §11). Wrapper backends (faults, retries, tracing)
// forward Data unchanged, so the reference flows through them untouched.
type Data struct {
	Name  string
	Size  int64
	Bytes []byte
	Ref   *mempool.Ref
}

// Release drops the pooled reference, if any. Safe on payloadless or
// unpooled Data (no-op).
func (d *Data) Release() {
	if d.Ref != nil {
		d.Ref.Release()
		d.Ref = nil
		d.Bytes = nil
	}
}

// Request is one read: the whole file Name names.
type Request struct {
	// Name is the file to read.
	Name string
	// Ctx is the read's trace context: layers doing attributable work
	// record spans against it when it is sampled, and every wrapper passes
	// it inward unchanged.
	Ctx obs.Ctx
	// Slot is Name's position in the dataset manifest + 1, as resolved
	// where the read entered the data plane, or 0 when unresolved. Every
	// wrapper passes it inward unchanged, as it does Ctx; a request a layer
	// builds itself carries 0. The leaf only trusts it once the manifest's
	// name at that slot is Name.
	Slot int
}

// Response is the result of one Request. Data comes by value, so the hot
// path allocates nothing for it; on error no reference is held.
type Response struct {
	Data Data
	// Detail is the per-read resilience annotation, filled by
	// ResilientBackend (also on error) and passed up unchanged by every
	// layer above it; zero elsewhere.
	Detail ReadDetail
}

// Backend is the one read contract of the data plane (DESIGN.md §18):
// every storage layer — leaf or wrapper — serves a Request with the whole
// file through Read, blocking the calling thread for the modeled or actual
// I/O duration. Implementations must be safe for concurrent use from
// threads of the same conc.Env.
type Backend interface {
	// Read serves req.
	Read(req Request) (Response, error)
}

// NotExistError reports a read of an unknown file.
type NotExistError struct{ Name string }

func (e *NotExistError) Error() string { return fmt.Sprintf("storage: file %q does not exist", e.Name) }

// region is the single payload allocation behind one read: a pooled lease
// when a pool is attached, a plain allocation otherwise.
func region(pool *mempool.Pool, n int64) ([]byte, *mempool.Ref) {
	if pool != nil {
		ref := pool.Get(int(n))
		return ref.Bytes(), ref
	}
	return make([]byte, n), nil
}

// ModeledBackend serves reads for a manifest's files against an analytic
// Device. It is the sim-mode storage stack: no bytes move, only (virtual)
// time passes.
type ModeledBackend struct {
	manifest *dataset.Manifest
	device   *Device
	// pool, when attached, makes reads carry synthetic pooled payloads of
	// the modeled size so sim and chaos epochs exercise the full buffer
	// ownership machinery (leak audits would be vacuous on payloadless
	// Data).
	pool *mempool.Pool
}

// SetBufferPool attaches a pool; subsequent reads return pooled synthetic
// payloads (deterministic bytes derived from the file name).
func (b *ModeledBackend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// fillSynthetic writes a cheap deterministic pattern derived from name, so
// pooled sim reads have verifiable content despite carrying no real bytes.
func fillSynthetic(buf []byte, name string) {
	var h byte
	for i := 0; i < len(name); i++ {
		h = h*31 + name[i]
	}
	for i := range buf {
		buf[i] = h + byte(i)
	}
}

// NewModeledBackend builds a backend over manifest and device. Every read
// pays the device: the paper's training reads are effectively uncached,
// each file read once per epoch from a 138 GiB dataset in random order.
func NewModeledBackend(manifest *dataset.Manifest, device *Device) *ModeledBackend {
	return &ModeledBackend{manifest: manifest, device: device}
}

// Read blocks for the device's modeled latency and returns a payloadless
// Data record (synthetic pooled bytes with a pool attached).
func (b *ModeledBackend) Read(req Request) (Response, error) {
	s, ok := b.manifest.Lookup(req.Name)
	if !ok {
		return Response{}, &NotExistError{Name: req.Name}
	}
	b.device.Read(s.Size)
	d := Data{Name: req.Name, Size: s.Size}
	if b.pool != nil {
		d.Bytes, d.Ref = region(b.pool, s.Size)
		fillSynthetic(d.Bytes, req.Name)
	}
	return Response{Data: d}, nil
}

// ReaderCount is the paper's Fig. 3 instrument: it wraps the backend a sim
// setup's reading threads use (the TF pipelines' readers, PRISMA's
// producers) and records how long each number of threads spent inside Read
// at once. For PRISMA wrap only the backend handed to the prefetcher, not
// the stage's, so bypassed (validation) reads do not count. Under the sim
// clock nothing between a producer's read clock and its backend read
// takes virtual time, so the count is the producers' own.
type ReaderCount struct {
	Backend
	readers *metrics.TimeInState
}

// NewReaderCount wraps inner with a reader count starting at zero.
func NewReaderCount(env conc.Env, inner Backend) *ReaderCount {
	return &ReaderCount{Backend: inner, readers: metrics.NewTimeInState(env, 0)}
}

// Read counts the calling thread as a reader for the length of inner's Read.
func (r *ReaderCount) Read(req Request) (Response, error) {
	r.readers.Add(1)
	resp, err := r.Backend.Read(req)
	r.readers.Add(-1)
	return resp, err
}

// Distribution reports the time spent at each concurrent-reader count.
func (r *ReaderCount) Distribution() map[int]time.Duration {
	return r.readers.Distribution()
}
