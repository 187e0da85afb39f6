package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// DirBackend serves reads from a real directory tree. File names use
// forward slashes relative to the root, matching dataset.FromDir.
//
// Every read goes through one open/size/read/close sequence (fetch). On
// Linux that sequence is four raw syscalls against a root descriptor
// opened once (dir_linux.go, DESIGN.md §21), and a leaf given its manifest
// keeps each listed file open after its first read, so later reads of it
// skip the open and the close (DESIGN.md §24); every other platform runs
// the whole sequence through package os (fetchPortable). The split is by
// platform only: nothing a user can set selects the body.
type DirBackend struct {
	dir  string
	pool *mempool.Pool

	// gate orders reads against Close: a read holds it shared for the
	// whole sequence, so Close never releases the root or a pinned
	// descriptor under a read that would then address a recycled
	// descriptor number.
	gate   sync.RWMutex
	closed bool
	root   rootDir

	// names gives each manifest name its slot in pins; nil (no manifest)
	// pins nothing. A slot holds one pinned descriptor and the size it had
	// when pinned (dir_linux.go); zero is empty.
	names *dataset.Manifest
	pins  []atomic.Uint64

	// portable makes this instance serve through the package-os body on
	// every platform. Tests only (export_test.go): it is how the
	// conformance table runs both bodies on one machine.
	portable bool
}

// ErrDirClosed is returned by reads of a DirBackend after Close.
var ErrDirClosed = errors.New("storage: directory backend closed")

// NewDirBackend returns a backend rooted at dir, holding the root open
// until Close.
func NewDirBackend(dir string) (*DirBackend, error) {
	root, err := openRoot(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: opening dataset root: %w", err)
	}
	return &DirBackend{dir: dir, root: root}, nil
}

// SetBufferPool attaches a pool; subsequent reads land in pooled buffers
// instead of fresh allocations.
func (b *DirBackend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// SetManifest names the files this leaf may keep open: after its first
// read, a file listed in m stays open until Close and is read through that
// descriptor, so a file renamed over or deleted after its first read keeps
// being served as it was. Every leaf in the process together keeps at most
// half the soft RLIMIT_NOFILE pinned; past that, and for names not in m,
// files are opened and closed per read — as every name is on a leaf never
// given a manifest, or where reads go through package os. Call before
// traffic starts.
func (b *DirBackend) SetManifest(m *dataset.Manifest) {
	b.names = m
	b.pins = make([]atomic.Uint64, m.Len())
	refreshPinBudget()
}

// Close releases the root and every pinned descriptor. It waits for reads
// in flight; later reads fail with ErrDirClosed. Idempotent.
func (b *DirBackend) Close() error {
	b.gate.Lock()
	defer b.gate.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	b.unpinAll()
	return b.root.close()
}

// checkName rejects, before any syscall, a name that cannot be a sample.
// Names are untrusted — un-planned reads arrive verbatim from the socket —
// so one that is absolute, empty, climbs out of the root through "..", or
// carries a NUL does not exist as far as this backend is concerned. The
// check is lexical and allocation-free; what a symlink inside the dataset
// resolves to is the open's business (beneath the root or refused, where
// the kernel offers that: dir_linux.go).
func checkName(name string) error {
	if !filepath.IsLocal(filepath.FromSlash(name)) || strings.IndexByte(name, 0) >= 0 {
		return &NotExistError{Name: name}
	}
	return nil
}

// Read reads from disk: the file is opened once — or not at all, when it
// is pinned — sized from the open descriptor, and read whole into a single
// buffer, pooled when a pool is attached. A file that grows between the
// size and the read is truncated to the size (training datasets are
// immutable during an epoch); one that shrinks yields an error.
func (b *DirBackend) Read(req Request) (Response, error) {
	b.gate.RLock()
	if b.closed {
		b.gate.RUnlock()
		return Response{}, ErrDirClosed
	}
	size, buf, ref, err := b.fetch(req.Name, req.Slot)
	b.gate.RUnlock()
	if err != nil {
		return Response{}, err
	}
	return Response{Data: Data{Name: req.Name, Size: size, Bytes: buf, Ref: ref}}, nil
}

// fill is the read half of fetch, shared by both bodies: it reads the
// file's size bytes into one buffer and on failure releases the lease
// before returning. src is the open file: an *os.File in the portable body,
// a bare descriptor on Linux — a type parameter rather than an interface
// value, so the descriptor is never boxed. ReadAt fills its buffer or fails
// (io.ReaderAt), which is the short-read rule.
func fill[S io.ReaderAt](src S, pool *mempool.Pool, name string, size int64) ([]byte, *mempool.Ref, error) {
	buf, ref := region(pool, size)
	if _, err := src.ReadAt(buf, 0); err != nil {
		if ref != nil {
			ref.Release()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, fmt.Errorf("storage: short read of %q: %w", name, err)
	}
	return buf, ref, nil
}

// fetchPortable is fetch through package os: nine syscalls and five heap
// objects per file on Linux (os.Open alone is openat, four fcntl and a
// failing epoll_ctl), which is why Linux does not use it.
func (b *DirBackend) fetchPortable(name string) (int64, []byte, *mempool.Ref, error) {
	if err := checkName(name); err != nil {
		return 0, nil, nil, err
	}
	f, err := os.Open(filepath.Join(b.dir, filepath.FromSlash(name)))
	if err != nil {
		return 0, nil, nil, notExist(name, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, nil, nil, err
	}
	if info.IsDir() {
		return 0, nil, nil, &NotExistError{Name: name}
	}
	buf, ref, err := fill(f, b.pool, name, info.Size())
	return info.Size(), buf, ref, err
}

// notExist maps the errors that mean "no such sample" to the typed error:
// a missing file, a path through something that is not a directory, a name
// longer than the filesystem allows. These are permanent answers from a
// healthy device, and the names that provoke them can come from the socket,
// so they must not count against the circuit breaker the way a device fault
// does.
func notExist(name string, err error) error {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) || errors.Is(err, syscall.ENAMETOOLONG) {
		return &NotExistError{Name: name}
	}
	return err
}
