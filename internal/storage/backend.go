package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
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

// PoolAttacher is implemented by backends (and backend wrappers) that can
// serve reads from a mempool.Pool. Wrappers delegate to the innermost
// backend, so attaching the pool at the top of the stack reaches the
// backend that actually allocates payloads.
type PoolAttacher interface {
	SetBufferPool(p *mempool.Pool)
}

// Backend serves whole-file reads, blocking the calling thread for the
// modeled or actual I/O duration. Implementations must be safe for
// concurrent use from threads of the same conc.Env.
type Backend interface {
	// ReadFile reads name in full.
	ReadFile(name string) (Data, error)
	// Size reports the file size from metadata, without data transfer.
	Size(name string) (int64, error)
}

// CtxReader is the optional trace-context extension of Backend: wrappers
// that do attributable work on the read path (the shared cache's
// single-flight coalescing, the tier's promote/decompress) implement it so
// a sampled read's spans land on the read's own trace instead of being
// invisible. Wrappers forward the ctx inward; use the ReadFileCtx helper at
// call sites so plain Backends keep working unchanged.
type CtxReader interface {
	// ReadFileCtx reads name in full, recording spans against ctx when it
	// is sampled. Semantics are otherwise identical to ReadFile.
	ReadFileCtx(name string, ctx obs.Ctx) (Data, error)
}

// ReadFileCtx dispatches a read through the CtxReader extension when b
// implements it, falling back to the plain ReadFile otherwise.
func ReadFileCtx(b Backend, name string, ctx obs.Ctx) (Data, error) {
	if cr, ok := b.(CtxReader); ok {
		return cr.ReadFileCtx(name, ctx)
	}
	return b.ReadFile(name)
}

// RangeReader is the optional byte-range extension of Backend, needed by
// packed record formats (internal/recordio) that read slices of large
// shard files rather than whole small files.
type RangeReader interface {
	// ReadRange reads n bytes of name starting at off. Reads past the end
	// of the file are truncated (Data.Size reports the bytes actually
	// read); off beyond EOF yields an empty Data.
	ReadRange(name string, off, n int64) (Data, error)
}

// NotExistError reports a read of an unknown file.
type NotExistError struct{ Name string }

func (e *NotExistError) Error() string { return fmt.Sprintf("storage: file %q does not exist", e.Name) }

// ModeledBackend serves reads for a manifest's files against an analytic
// Device, optionally through a page cache. It is the sim-mode storage
// stack: no bytes move, only (virtual) time passes.
type ModeledBackend struct {
	manifest *dataset.Manifest
	device   *Device
	cache    *PageCache // nil = no caching (cold-cache experiments)
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

// NewModeledBackend builds a backend over manifest and device. cache may be
// nil to model cold-cache behaviour (the paper's training reads are
// effectively uncached: each file is read once per epoch from a 138 GiB
// dataset with random order).
func NewModeledBackend(manifest *dataset.Manifest, device *Device, cache *PageCache) *ModeledBackend {
	return &ModeledBackend{manifest: manifest, device: device, cache: cache}
}

// ReadFile blocks for the device's modeled latency and returns a payloadless
// Data record.
func (b *ModeledBackend) ReadFile(name string) (Data, error) {
	s, ok := b.manifest.Lookup(name)
	if !ok {
		return Data{}, &NotExistError{Name: name}
	}
	if b.cache != nil && b.cache.Touch(name) {
		// Page-cache hit: memory-speed, modeled as free relative to the
		// microsecond-scale device costs.
		return b.payload(name, s.Size), nil
	}
	b.device.Read(s.Size)
	if b.cache != nil {
		b.cache.Insert(name, s.Size)
	}
	return b.payload(name, s.Size), nil
}

// payload builds the Data record, pooled when a pool is attached.
func (b *ModeledBackend) payload(name string, size int64) Data {
	if b.pool == nil {
		return Data{Name: name, Size: size}
	}
	ref := b.pool.Get(int(size))
	fillSynthetic(ref.Bytes(), name)
	return Data{Name: name, Size: size, Bytes: ref.Bytes(), Ref: ref}
}

// ReadRange implements RangeReader: the device is charged for the bytes
// actually transferred (offsets carry no cost in the analytic model).
func (b *ModeledBackend) ReadRange(name string, off, n int64) (Data, error) {
	s, ok := b.manifest.Lookup(name)
	if !ok {
		return Data{}, &NotExistError{Name: name}
	}
	if off < 0 || n < 0 {
		return Data{}, fmt.Errorf("storage: negative range (%d, %d)", off, n)
	}
	if off >= s.Size {
		return Data{Name: name, Size: 0}, nil
	}
	if off+n > s.Size {
		n = s.Size - off
	}
	if b.cache != nil && b.cache.Touch(name) {
		return Data{Name: name, Size: n}, nil
	}
	b.device.Read(n)
	return Data{Name: name, Size: n}, nil
}

// Size reports the manifest size for name.
func (b *ModeledBackend) Size(name string) (int64, error) {
	s, ok := b.manifest.Lookup(name)
	if !ok {
		return 0, &NotExistError{Name: name}
	}
	return s.Size, nil
}

// Device exposes the underlying device (for stats).
func (b *ModeledBackend) Device() *Device { return b.device }

// DirBackend serves reads from a real directory tree. File names use
// forward slashes relative to the root, matching dataset.FromDir.
type DirBackend struct {
	root string
	pool *mempool.Pool
}

// NewDirBackend returns a backend rooted at dir.
func NewDirBackend(dir string) *DirBackend { return &DirBackend{root: dir} }

// SetBufferPool attaches a pool; subsequent whole-file reads land in pooled
// buffers instead of fresh os.ReadFile allocations.
func (b *DirBackend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// path maps a sample name to its file under the root. Names are untrusted
// — un-planned reads arrive verbatim from the socket — so one that is
// absolute, empty, or climbs out of the root through ".." does not exist
// as far as this backend is concerned. The check is lexical (symlinks
// inside the dataset are the operator's business) and allocation-free.
func (b *DirBackend) path(name string) (string, error) {
	local := filepath.FromSlash(name)
	if !filepath.IsLocal(local) {
		return "", &NotExistError{Name: name}
	}
	return filepath.Join(b.root, local), nil
}

// ReadFile reads the file from disk. With a pool attached the payload is
// read directly into a pooled buffer sized from the file's metadata.
func (b *DirBackend) ReadFile(name string) (Data, error) {
	path, err := b.path(name)
	if err != nil {
		return Data{}, err
	}
	if b.pool != nil {
		return readFilePooled(b.pool, name, path)
	}
	bytes, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Data{}, &NotExistError{Name: name}
		}
		return Data{}, err
	}
	return Data{Name: name, Size: int64(len(bytes)), Bytes: bytes}, nil
}

// readFilePooled reads path into a pool buffer sized by fstat. A file that
// grows between stat and read is truncated to the stat size (training
// datasets are immutable during an epoch); one that shrinks yields an
// error. Every error path releases the lease.
func readFilePooled(pool *mempool.Pool, name, path string) (Data, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Data{}, &NotExistError{Name: name}
		}
		return Data{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return Data{}, err
	}
	size := info.Size()
	ref := pool.Get(int(size))
	if _, err := io.ReadFull(f, ref.Bytes()); err != nil {
		ref.Release()
		return Data{}, fmt.Errorf("storage: short read of %q: %w", name, err)
	}
	return Data{Name: name, Size: size, Bytes: ref.Bytes(), Ref: ref}, nil
}

// ReadRange implements RangeReader via pread on the underlying file.
func (b *DirBackend) ReadRange(name string, off, n int64) (Data, error) {
	if off < 0 || n < 0 {
		return Data{}, fmt.Errorf("storage: negative range (%d, %d)", off, n)
	}
	path, err := b.path(name)
	if err != nil {
		return Data{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Data{}, &NotExistError{Name: name}
		}
		return Data{}, err
	}
	defer f.Close()
	buf := make([]byte, n)
	read, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return Data{}, err
	}
	return Data{Name: name, Size: int64(read), Bytes: buf[:read]}, nil
}

// Size stats the file.
func (b *DirBackend) Size(name string) (int64, error) {
	path, err := b.path(name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, &NotExistError{Name: name}
		}
		return 0, err
	}
	return info.Size(), nil
}
