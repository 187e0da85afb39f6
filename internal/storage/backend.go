package storage

import (
	"errors"
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

// Slice returns the window of d that r addresses, clamped to d.Size — the
// view a layer holding a whole-file resident serves a ranged request from.
// The view shares d's Ref without retaining it (the caller retains one
// reference per view it hands out); a payloadless d yields sizes only. r
// must be non-negative (Request.Validate).
func (d Data) Slice(r Range) Data {
	r = r.Clamp(d.Size)
	v := Data{Name: d.Name, Size: r.N, Ref: d.Ref}
	if d.Bytes != nil {
		v.Bytes = d.Bytes[r.Off : r.Off+r.N]
	}
	return v
}

// Range is one byte window of a named file.
type Range struct {
	Off int64
	N   int64
}

// Clamp applies the truncation contract against a file of size bytes: a
// range reaching past EOF is cut at EOF and one starting beyond EOF becomes
// empty. It is the one copy of this arithmetic (overflow-safe: Off+N is
// never formed); r must be non-negative.
func (r Range) Clamp(size int64) Range {
	if r.Off > size {
		r.Off = size
	}
	if r.N > size-r.Off {
		r.N = size - r.Off
	}
	return r
}

// Request is one read. The request class rides in the value, not in the
// method set: no Ranges asks for the whole file, one Range for a byte
// window (packed record formats read slices of large shards), K Ranges for
// a vectored read served as ONE backend operation — what lets the
// plan-aware coalescer amortize per-request cost across K FIFO-adjacent
// samples of one shard.
type Request struct {
	// Name is the file to read.
	Name string
	// Ranges selects byte windows of the file; empty reads it whole. Ranges
	// past EOF truncate, a range starting beyond EOF yields an empty view,
	// and a negative offset or length fails the whole request.
	Ranges []Range
	// Out is caller-owned scratch the views of a ranged request are
	// appended to (may be nil), so steady-state vectored reads allocate
	// nothing.
	Out []Data
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

// Validate rejects a negative offset or length in any range.
func (r Request) Validate() error {
	for _, rg := range r.Ranges {
		if rg.Off < 0 || rg.N < 0 {
			return fmt.Errorf("storage: negative range (%d, %d) of %s", rg.Off, rg.N, r.Name)
		}
	}
	return nil
}

// Response is the result of one Request.
//
// A whole-file request fills Data (by value: the hot path allocates
// nothing for it). A ranged request fills Views = append(req.Out, one Data
// per range, in range order). Pooled backends serve every range out of ONE
// pooled region buffer: each view subslices that region and carries its
// own reference to the shared mempool.Ref, so views release independently
// under the usual single-ownership hand-off and the region returns to the
// pool when the last view is dropped. On error no references are held and
// req.Out is untouched up to its length.
type Response struct {
	Data  Data
	Views []Data
	// Detail is the per-read resilience annotation, filled by
	// ResilientBackend (also on error) and passed up unchanged by every
	// layer above it; zero elsewhere.
	Detail ReadDetail
}

// Ranged returns the views r carries for req's ranges: Views past the
// caller's Out prefix.
func (r Response) Ranged(req Request) []Data {
	if len(r.Views) < len(req.Out) {
		return nil
	}
	return r.Views[len(req.Out):]
}

// PayloadSize reports the bytes r carries for req — what a layer charging
// a device or counter per byte moved needs, whatever the request class.
func (r Response) PayloadSize(req Request) int64 {
	n := r.Data.Size
	for _, v := range r.Ranged(req) {
		n += v.Size
	}
	return n
}

// Release drops every pooled reference r carries for req.
func (r *Response) Release(req Request) {
	r.Data.Release()
	views := r.Ranged(req)
	for i := range views {
		views[i].Release()
	}
}

// Backend is the one read contract of the data plane (DESIGN.md §18):
// every storage layer — leaf or wrapper — serves every request class
// through Read, blocking the calling thread for the modeled or actual I/O
// duration. A layer that cannot serve ranged requests returns an error
// wrapping ErrUnsupported. Implementations must be safe for concurrent use
// from threads of the same conc.Env.
type Backend interface {
	// Read serves req.
	Read(req Request) (Response, error)
	// Size reports the file size from metadata, without data transfer.
	Size(name string) (int64, error)
}

// ErrUnsupported reports a request class a backend cannot serve (ranges of
// a store that only knows whole samples). It is a chain-composition
// mistake, not a device fault: ResilientBackend counts it without retry or
// breaker penalty.
var ErrUnsupported = errors.New("storage: request class not supported")

// Coalescer is implemented by the sample view at the top of a chain when
// it can serve FIFO-adjacent samples of one container with one vectored
// request (recordio.IndexedBackend). The chain's fold hands it to the
// prefetcher; wrappers sit below the sample view, so nothing forwards it.
type Coalescer interface {
	// Locate maps a sample name to the physical container (recordio
	// shard) a batched read must address and the stored length of its
	// record, so FIFO-adjacent plan entries can be grouped without knowing
	// the pack format.
	Locate(name string) (container string, storedBytes int64, ok bool)
	// BatchReader mints a per-goroutine SampleBatcher context.
	BatchReader() SampleBatcher
}

// SampleBatcher reads several samples — which must share one locator
// container — in a single vectored backend operation, appending one Data
// per name to out (caller-owned scratch) in name order. Implementations
// are single-goroutine scratch contexts: each producer thread owns one,
// so steady-state batched reads allocate nothing. Any per-sample failure
// (missing name, CRC mismatch, decode error) fails the whole batch with
// every pooled reference released; callers fall back to per-sample reads.
type SampleBatcher interface {
	ReadSampleBatch(names []string, out []Data) ([]Data, error)
}

// NotExistError reports a read of an unknown file.
type NotExistError struct{ Name string }

func (e *NotExistError) Error() string { return fmt.Sprintf("storage: file %q does not exist", e.Name) }

// region is the single payload allocation behind one request: a pooled
// lease when a pool is attached (the Get's one reference is shared across
// a ranged request's views via Retain), a plain allocation otherwise.
func region(pool *mempool.Pool, n int64) ([]byte, *mempool.Ref) {
	if pool != nil {
		ref := pool.Get(int(n))
		return ref.Bytes(), ref
	}
	return make([]byte, n), nil
}

// clampedTotal is the bytes req's ranges transfer from a file of size
// bytes — what a ranged request's region is sized from (never from the
// caller's N).
func clampedTotal(ranges []Range, size int64) int64 {
	var total int64
	for _, r := range ranges {
		total += r.Clamp(size).N
	}
	return total
}

// carve appends one view per range to out, windows of buf laid out back
// to back in range order, each carrying its own reference to ref.
func carve(out []Data, name string, ranges []Range, size int64, buf []byte, ref *mempool.Ref) []Data {
	var pos int64
	for i, r := range ranges {
		n := r.Clamp(size).N
		if ref != nil && i > 0 {
			ref.Retain()
		}
		out = append(out, Data{Name: name, Size: n, Bytes: buf[pos : pos+n], Ref: ref})
		pos += n
	}
	return out
}

// ModeledBackend serves reads for a manifest's files against an analytic
// Device. It is the sim-mode storage stack: no bytes move, only (virtual)
// time passes.
type ModeledBackend struct {
	manifest *dataset.Manifest
	device   *Device
	// pool, when attached, makes whole-file reads carry synthetic pooled
	// payloads of the modeled size so sim and chaos epochs exercise the
	// full buffer ownership machinery (leak audits would be vacuous on
	// payloadless Data).
	pool *mempool.Pool
}

// SetBufferPool attaches a pool; subsequent whole-file reads return pooled
// synthetic payloads (deterministic bytes derived from the file name).
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

// Read blocks for the device's modeled latency. A whole-file read returns a
// payloadless Data record (synthetic pooled bytes with a pool attached). A
// ranged request is ONE device request charged for the bytes actually
// transferred (offsets carry no cost in the analytic model), so BaseLatency
// is paid once for K samples instead of K times — the mechanism behind the
// coalescer's op reduction; its views are payloadless.
func (b *ModeledBackend) Read(req Request) (Response, error) {
	s, ok := b.manifest.Lookup(req.Name)
	if !ok {
		return Response{}, &NotExistError{Name: req.Name}
	}
	if len(req.Ranges) == 0 {
		b.device.Read(s.Size)
		d := Data{Name: req.Name, Size: s.Size}
		if b.pool != nil {
			d.Bytes, d.Ref = region(b.pool, s.Size)
			fillSynthetic(d.Bytes, req.Name)
		}
		return Response{Data: d}, nil
	}
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	b.device.Read(clampedTotal(req.Ranges, s.Size))
	views := req.Out
	for _, r := range req.Ranges {
		views = append(views, Data{Name: req.Name, Size: r.Clamp(s.Size).N})
	}
	return Response{Views: views}, nil
}

// Size reports the manifest size for name.
func (b *ModeledBackend) Size(name string) (int64, error) {
	s, ok := b.manifest.Lookup(name)
	if !ok {
		return 0, &NotExistError{Name: name}
	}
	return s.Size, nil
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
