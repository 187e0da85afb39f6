package storage

import (
	"fmt"
	"io"
	"os"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// Range is one byte window of a named file, as used by vectored reads.
type Range struct {
	Off int64
	N   int64
}

// BatchRangeReader is the vectored extension of RangeReader: it serves
// several byte ranges of one file in a single backend operation, which is
// what lets the plan-aware read coalescer amortize per-request cost
// (seek/latency on real devices, BaseLatency on the modeled one) across
// K FIFO-adjacent samples packed into the same recordio shard.
//
// Per-range semantics match ReadRange exactly: ranges past EOF truncate,
// a range starting beyond EOF yields an empty Data, and a negative offset
// or length fails the whole batch. One Data is appended to out (a
// caller-owned scratch slice, may be nil) per range, in range order.
//
// Pooled implementations serve every range out of ONE pooled region
// buffer: each returned Data subslices that region and carries its own
// reference to the shared mempool.Ref (the Get's reference plus one
// Retain per additional view), so each view releases independently under
// the usual single-ownership hand-off and the region returns to the pool
// when the last view is dropped. On error, no references leak and out is
// returned at its original length.
type BatchRangeReader interface {
	ReadRangeBatch(name string, ranges []Range, out []Data) ([]Data, error)
}

// BatchLocator maps a sample name to the physical container (recordio
// shard) a batched read must address and the stored length of its record.
// The prefetcher uses it to group FIFO-adjacent plan entries that live in
// the same container without knowing anything about the pack format.
type BatchLocator interface {
	Locate(name string) (container string, storedBytes int64, ok bool)
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

// BatchProvider is implemented by backends that can mint per-goroutine
// SampleBatcher contexts (recordio.IndexedBackend). A backend that
// implements BatchProvider implements BatchLocator too; the prefetcher
// requires both before enabling coalescing.
type BatchProvider interface {
	BatchReader() SampleBatcher
}

// BatchParallelismHinter reports how many range segments one vectored
// request can usefully carry — the modeled device's channel count.
// Wrappers forward it inward; zero means no opinion.
type BatchParallelismHinter interface {
	BatchParallelism() int
}

// validateRanges checks every range for negative offsets or lengths,
// matching the per-range error contract of the base backends.
func validateRanges(name string, ranges []Range) error {
	for _, r := range ranges {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("storage: negative range (%d, %d) in batch for %s", r.Off, r.N, name)
		}
	}
	return nil
}

// clampRange applies the RangeReader truncation contract against size.
func clampRange(r Range, size int64) Range {
	if r.Off > size {
		r.Off = size
	}
	if r.Off+r.N > size {
		r.N = size - r.Off
	}
	return r
}

// ReadRangeBatch implements BatchRangeReader: one pooled region buffer
// (or one flat allocation, unpooled) holds every requested window; the
// returned Datas are zero-copy views into it sharing one Ref.
func (b *MemBackend) ReadRangeBatch(name string, ranges []Range, out []Data) ([]Data, error) {
	b.mu.Lock()
	src, ok := b.files[name]
	b.mu.Unlock()
	if !ok {
		return out, &NotExistError{Name: name}
	}
	if err := validateRanges(name, ranges); err != nil {
		return out, err
	}
	size := int64(len(src))
	var total int64
	for _, r := range ranges {
		total += clampRange(r, size).N
	}
	region, ref := b.batchRegion(int(total))
	var pos int64
	for i, r := range ranges {
		r = clampRange(r, size)
		window := region[pos : pos+r.N]
		copy(window, src[r.Off:r.Off+r.N])
		pos += r.N
		if ref != nil && i > 0 {
			ref.Retain()
		}
		out = append(out, Data{Name: name, Size: r.N, Bytes: window, Ref: ref})
	}
	return out, nil
}

// batchRegion allocates the shared region for a batch: pooled when a pool
// is attached (the Get's single reference is shared across the views via
// Retain), a plain allocation otherwise.
func (b *MemBackend) batchRegion(n int) ([]byte, *mempool.Ref) {
	if b.pool != nil {
		r := b.pool.Get(n)
		return r.Bytes(), r
	}
	return make([]byte, n), nil
}

// ReadRangeBatch implements BatchRangeReader over one opened file: every
// window is pread into a single region buffer, so the per-open and
// per-request costs are paid once per batch instead of once per sample.
func (b *DirBackend) ReadRangeBatch(name string, ranges []Range, out []Data) ([]Data, error) {
	if err := validateRanges(name, ranges); err != nil {
		return out, err
	}
	path, err := b.path(name)
	if err != nil {
		return out, err
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return out, &NotExistError{Name: name}
		}
		return out, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return out, err
	}
	size := info.Size()
	var total int64
	for _, r := range ranges {
		total += clampRange(r, size).N
	}
	region, ref := b.batchRegion(int(total))
	base := len(out)
	var pos int64
	for i, r := range ranges {
		r = clampRange(r, size)
		window := region[pos : pos+r.N]
		if _, rerr := io.ReadFull(io.NewSectionReader(f, r.Off, r.N), window); rerr != nil {
			// Already-appended views each own one reference; the failing
			// segment owns none. With no views out yet the Get's single
			// reference is still pending on ref itself.
			if i == 0 && ref != nil {
				ref.Release()
			}
			for j := base; j < len(out); j++ {
				out[j].Release()
			}
			return out[:base], fmt.Errorf("storage: short range read of %q: %w", name, rerr)
		}
		pos += r.N
		if ref != nil && i > 0 {
			ref.Retain()
		}
		out = append(out, Data{Name: name, Size: r.N, Bytes: window, Ref: ref})
	}
	return out, nil
}

// batchRegion mirrors MemBackend.batchRegion for the directory backend.
func (b *DirBackend) batchRegion(n int) ([]byte, *mempool.Ref) {
	if b.pool != nil {
		r := b.pool.Get(n)
		return r.Bytes(), r
	}
	return make([]byte, n), nil
}

// ReadRangeBatch implements BatchRangeReader against the analytic device:
// the batch is ONE device request charged for the total transferred bytes,
// so BaseLatency is paid once for K samples instead of K times — the
// mechanism behind the coalescer's op reduction. Returned Datas are
// payloadless (sizes only), matching ReadRange.
func (b *ModeledBackend) ReadRangeBatch(name string, ranges []Range, out []Data) ([]Data, error) {
	s, ok := b.manifest.Lookup(name)
	if !ok {
		return out, &NotExistError{Name: name}
	}
	if err := validateRanges(name, ranges); err != nil {
		return out, err
	}
	var total int64
	for _, r := range ranges {
		total += clampRange(r, s.Size).N
	}
	if !(b.cache != nil && b.cache.Touch(name)) {
		b.device.Read(total)
	}
	for _, r := range ranges {
		r = clampRange(r, s.Size)
		out = append(out, Data{Name: name, Size: r.N})
	}
	return out, nil
}

// BatchParallelism implements BatchParallelismHinter: a vectored request
// wider than the device's channel count stops amortizing and starts
// queueing, so the coalescer caps runs at the channel count.
func (b *ModeledBackend) BatchParallelism() int { return b.device.Spec().Channels }
