package recordio

import (
	"fmt"

	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// Locate implements storage.Coalescer: it reports the shard holding
// name's record and the record's stored length (header + possibly
// compressed payload), which is what the plan-aware coalescer needs to
// group FIFO-adjacent samples and budget a batch's bytes. Index lookups
// are lock-free after Freeze-less construction (the index is read-only at
// serving time), so this is safe to call from the queue's run predicate.
func (b *IndexedBackend) Locate(name string) (container string, storedBytes int64, ok bool) {
	e, found := b.ix.Lookup(name)
	if !found {
		return "", 0, false
	}
	return e.Shard, e.Length, true
}

// BatchReader implements storage.Coalescer: it mints a per-goroutine
// batch context. Each producer thread owns one, so the scratch slices it
// carries are reused across batches without synchronization and
// steady-state batched reads allocate nothing.
func (b *IndexedBackend) BatchReader() storage.SampleBatcher {
	return &batchReader{b: b}
}

// batchReader is the single-goroutine scratch context behind BatchReader
// and (recycled through IndexedBackend.readers, as a batch of one) behind
// per-sample reads.
type batchReader struct {
	b      *IndexedBackend
	ranges []storage.Range
	views  []storage.Data
	// name and sample are the per-sample path's batch-of-one scratch.
	name   [1]string
	sample [1]storage.Data
}

// ReadSampleBatch implements storage.SampleBatcher.
func (r *batchReader) ReadSampleBatch(names []string, out []storage.Data) ([]storage.Data, error) {
	return r.read(names, out, obs.Ctx{})
}

// read fetches every name's record — all must live in one shard — by a
// single ranged request against the shard store, then splits the region in
// place: uncompressed records alias their segment of the shared region
// buffer (the segment's reference rides along, zero copies), compressed
// records decode into a pooled sample buffer and drop their segment
// reference. The CRC covers the stored (possibly compressed) payload, so
// corruption is caught before the decoder runs. Any failure releases every
// reference taken so far and fails the whole batch.
func (r *batchReader) read(names []string, out []storage.Data, ctx obs.Ctx) ([]storage.Data, error) {
	if len(names) == 0 {
		return out, nil
	}
	r.ranges = r.ranges[:0]
	var shard string
	for i, name := range names {
		e, found := r.b.ix.Lookup(name)
		if !found {
			return out, &storage.NotExistError{Name: name}
		}
		if i == 0 {
			shard = e.Shard
		} else if e.Shard != shard {
			return out, fmt.Errorf("recordio: batch spans shards %s and %s", shard, e.Shard)
		}
		r.ranges = append(r.ranges, storage.Range{Off: e.Offset, N: e.Length})
	}
	resp, err := r.b.backend.Read(storage.Request{Name: shard, Ranges: r.ranges, Out: r.views[:0], Ctx: ctx})
	if err != nil {
		return out, err
	}
	views := resp.Views
	r.views = views[:0]
	base := len(out)
	for i, name := range names {
		e, _ := r.b.ix.Lookup(name)
		d, derr := r.b.sample(name, e, views[i])
		if derr != nil {
			// views[i] was released by sample; drop the samples already
			// built and the segments not yet reached.
			for j := base; j < len(out); j++ {
				out[j].Release()
			}
			for j := i + 1; j < len(views); j++ {
				views[j].Release()
			}
			return out[:base], fmt.Errorf("recordio: %s in %s: %w", name, shard, derr)
		}
		out = append(out, d)
	}
	return out, nil
}

// sample turns one record's stored bytes (rec, a view of the shard) into
// the sample it encodes, taking over rec's reference: verbatim payloads
// keep it (the payload aliases rec's buffer, so its pool reference rides
// along to the consumer), compressed ones decode into a buffer sized for
// the raw sample — pooled when a pool is attached — and release it, as
// does every error path.
func (b *IndexedBackend) sample(name string, e Entry, rec storage.Data) (storage.Data, error) {
	if rec.Bytes == nil {
		// Modeled shard store: the device was charged for the stored
		// (compressed) record; report the decoded sample size.
		return storage.Data{Name: name, Size: e.PayloadSize()}, nil
	}
	payload, _, err := Decode(rec.Bytes)
	if err != nil {
		rec.Release()
		return storage.Data{}, err
	}
	if e.Codec == CodecNone {
		return storage.Data{Name: name, Size: int64(len(payload)), Bytes: payload, Ref: rec.Ref}, nil
	}
	d := storage.Data{Name: name, Size: e.Raw}
	if b.pool != nil {
		d.Ref = b.pool.Get(int(e.Raw))
		d.Bytes = d.Ref.Bytes()
	} else {
		d.Bytes = make([]byte, e.Raw)
	}
	err = DecompressInto(d.Bytes, payload)
	rec.Release()
	if err != nil {
		d.Release()
		return storage.Data{}, err
	}
	return d, nil
}
