package storage

import (
	"math/rand"
	"sync"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// MemBackend serves reads from an in-memory dataset. It exists for two
// in-repo measurements that must not be polluted by filesystem noise:
//
//   - the hot-path allocation benchmark, where the only unavoidable work
//     per read is one payload copy (so pooled vs unpooled isolates the
//     allocator's contribution), and
//   - the aliasing property tests, which compare every delivered sample
//     byte-for-byte against Content's ground truth.
type MemBackend struct {
	mu    sync.Mutex
	files map[string][]byte
	pool  *mempool.Pool
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string][]byte)}
}

// SetBufferPool attaches a pool; reads then copy into pooled buffers
// instead of fresh allocations.
func (b *MemBackend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// Add stores a file.
func (b *MemBackend) Add(name string, content []byte) {
	b.mu.Lock()
	b.files[name] = content
	b.mu.Unlock()
}

// AddSeeded stores a file with deterministic pseudo-random content derived
// from seed, and returns the content (ground truth for aliasing checks).
func (b *MemBackend) AddSeeded(name string, size int, seed int64) []byte {
	buf := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(buf)
	b.Add(name, buf)
	return buf
}

// Content returns the stored bytes for name (the source of truth; callers
// must not mutate it).
func (b *MemBackend) Content(name string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.files[name]
	return c, ok
}

// Read copies the file out — into a pooled buffer when a pool is
// attached, a fresh allocation otherwise. The copy is deliberate even
// unpooled: a real backend never aliases its own storage, and the aliasing
// tests rely on delivered samples being distinct arrays.
func (b *MemBackend) Read(req Request) (Response, error) {
	b.mu.Lock()
	src, ok := b.files[req.Name]
	b.mu.Unlock()
	if !ok {
		return Response{}, &NotExistError{Name: req.Name}
	}
	size := int64(len(src))
	buf, ref := region(b.pool, size)
	copy(buf, src)
	return Response{Data: Data{Name: req.Name, Size: size, Bytes: buf, Ref: ref}}, nil
}

// Size reports the stored length.
func (b *MemBackend) Size(name string) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.files[name]
	if !ok {
		return 0, &NotExistError{Name: name}
	}
	return int64(len(c)), nil
}
