package recordio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// PackManifest lays a dataset's samples into shards of roughly shardBytes
// each, in manifest order, without materializing payloads — the packing
// plan for modeled (sim-mode) backends. It returns the index plus a shard
// manifest usable with storage.NewModeledBackend.
func PackManifest(man *dataset.Manifest, prefix string, shardBytes int64) (*Index, *dataset.Manifest, error) {
	return packManifest(man, prefix, shardBytes, nil)
}

// PackManifestCompressed is PackManifest with modeled transparent
// compression: each sample's stored size is its manifest size scaled by
// ratio (clamped to [1, size]), so the modeled device is charged for
// compressed bytes while readers observe the raw sample size — the same
// contract the real compressed packer provides. ratio must be in (0, 1].
func PackManifestCompressed(man *dataset.Manifest, prefix string, shardBytes int64, ratio float64) (*Index, *dataset.Manifest, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, nil, fmt.Errorf("recordio: compression ratio %v outside (0, 1]", ratio)
	}
	return packManifest(man, prefix, shardBytes, func(size int64) int64 {
		stored := int64(float64(size) * ratio)
		if stored < 1 {
			stored = 1
		}
		if stored > size {
			stored = size
		}
		return stored
	})
}

func packManifest(man *dataset.Manifest, prefix string, shardBytes int64, storedFn func(int64) int64) (*Index, *dataset.Manifest, error) {
	if shardBytes < headerSize+1 {
		return nil, nil, fmt.Errorf("recordio: shard size %d too small", shardBytes)
	}
	ix := NewIndex()
	var shards []dataset.Sample
	shardIdx := -1
	var shardName string
	var offset int64
	newShard := func() {
		if shardIdx >= 0 {
			shards = append(shards, dataset.Sample{Name: shardName, Size: offset})
		}
		shardIdx++
		shardName = fmt.Sprintf("%s/shard-%05d.rec", prefix, shardIdx)
		offset = 0
	}
	newShard()
	for i := 0; i < man.Len(); i++ {
		s := man.Sample(i)
		e := Entry{Shard: shardName}
		stored := s.Size
		if storedFn != nil {
			stored = storedFn(s.Size)
			if stored < s.Size {
				e.Codec = CodecLZ
				e.Raw = s.Size
			}
		}
		recLen := headerSize + stored
		if offset > 0 && offset+recLen > shardBytes {
			newShard()
		}
		e.Shard, e.Offset, e.Length = shardName, offset, recLen
		if err := ix.Add(s.Name, e); err != nil {
			return nil, nil, err
		}
		offset += recLen
	}
	if offset > 0 || shardIdx == 0 {
		shards = append(shards, dataset.Sample{Name: shardName, Size: offset})
	}
	shardMan, err := dataset.New(shards)
	if err != nil {
		return nil, nil, err
	}
	return ix, shardMan, nil
}

// PackOptions selects the transparent storage optimizations applied while
// packing real files.
type PackOptions struct {
	// Compress LZ-encodes each payload, storing it compressed only when
	// that is strictly smaller (incompressible samples stay verbatim).
	Compress bool
	// Dedup indexes samples with identical content (by SHA-256) at one
	// shared record instead of writing the bytes again.
	Dedup bool
}

// PackDir packs every file of a source directory's manifest into real
// shard files under dstDir, returning the index.
func PackDir(srcDir string, man *dataset.Manifest, dstDir, prefix string, shardBytes int64) (*Index, error) {
	return PackDirOpts(srcDir, man, dstDir, prefix, shardBytes, PackOptions{})
}

// PackDirOpts is PackDir with transparent compression and content dedup.
func PackDirOpts(srcDir string, man *dataset.Manifest, dstDir, prefix string, shardBytes int64, opts PackOptions) (*Index, error) {
	if shardBytes < headerSize+1 {
		return nil, fmt.Errorf("recordio: shard size %d too small", shardBytes)
	}
	src, err := storage.NewDirBackend(srcDir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ix := NewIndex()
	shardIdx := -1
	var w *Writer
	var f *os.File
	var shardName string
	closeShard := func() error {
		if f == nil {
			return nil
		}
		err := f.Close()
		f = nil
		return err
	}
	newShard := func() error {
		if err := closeShard(); err != nil {
			return err
		}
		shardIdx++
		shardName = fmt.Sprintf("%s/shard-%05d.rec", prefix, shardIdx)
		path := filepath.Join(dstDir, filepath.FromSlash(shardName))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		w = NewWriter(f)
		return nil
	}
	if err := newShard(); err != nil {
		return nil, err
	}
	var seen map[[32]byte]Entry
	if opts.Dedup {
		seen = make(map[[32]byte]Entry)
	}
	var scratch []byte // compressed payload of the sample in hand, reused
	for i := 0; i < man.Len(); i++ {
		s := man.Sample(i)
		resp, err := src.Read(storage.Request{Name: s.Name})
		if err != nil {
			closeShard()
			return nil, err
		}
		data := resp.Data
		var key [32]byte
		if opts.Dedup {
			key = ContentKey(data.Bytes)
			if first, dup := seen[key]; dup {
				first.Dedup = true
				if err := ix.Add(s.Name, first); err != nil {
					closeShard()
					return nil, err
				}
				continue
			}
		}
		payload := data.Bytes
		codec := CodecNone
		if opts.Compress {
			var ok bool
			if scratch, ok = AppendCompress(scratch[:0], data.Bytes); ok {
				payload = scratch
				codec = CodecLZ
			}
		}
		if w.Offset() > 0 && w.Offset()+headerSize+int64(len(payload)) > shardBytes {
			if err := newShard(); err != nil {
				return nil, err
			}
		}
		off, length, err := w.WriteRecord(payload)
		if err != nil {
			closeShard()
			return nil, err
		}
		e := Entry{Shard: shardName, Offset: off, Length: length, Codec: codec}
		if codec != CodecNone {
			e.Raw = data.Size
		}
		if err := ix.Add(s.Name, e); err != nil {
			closeShard()
			return nil, err
		}
		if opts.Dedup {
			seen[key] = e
		}
	}
	return ix, closeShard()
}

// PackMem packs payloads, in order, as the records of one shard that it adds
// to mem under the name shard, and indexes record i as names[i]: the packed
// dataset of the in-memory experiments and tests. compress stores a payload
// LZ-encoded when that is smaller, as PackDirOpts does.
func PackMem(mem *storage.MemBackend, shard string, names []string, payloads [][]byte, compress bool) (*Index, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ix := NewIndex()
	for i, name := range names {
		e, payload := Entry{Shard: shard}, payloads[i]
		if compress {
			if comp, ok := AppendCompress(nil, payload); ok {
				payload, e.Codec, e.Raw = comp, CodecLZ, int64(len(payloads[i]))
			}
		}
		var err error
		if e.Offset, e.Length, err = w.WriteRecord(payload); err != nil {
			return nil, err
		}
		if err := ix.Add(name, e); err != nil {
			return nil, err
		}
	}
	mem.Add(shard, buf.Bytes())
	return ix, nil
}

// IndexedBackend adapts a packed layout back to the per-sample
// storage.Backend interface: reading a sample name resolves through the
// index to a byte-range read of its shard. This is what lets the PRISMA
// prefetcher (which thinks in sample names) run unchanged on top of
// TFRecord-style shards — the format and the prefetching optimization
// compose instead of competing.
type IndexedBackend struct {
	ix      *Index
	backend storage.Backend
	pool    *mempool.Pool
	// readers recycles the single-goroutine scratch contexts (*batchReader)
	// behind per-sample reads, so they stay allocation-free like the
	// per-producer contexts BatchReader mints.
	readers sync.Pool
}

// NewIndexedBackend wires an index to the shard store.
func NewIndexedBackend(ix *Index, backend storage.Backend) *IndexedBackend {
	b := &IndexedBackend{ix: ix, backend: backend}
	b.readers.New = func() any { return &batchReader{b: b} }
	return b
}

// SetBufferPool attaches the sample buffer pool: compressed records then
// decode in place into pooled buffers. (The shard store pools its own
// range reads when the chain builder attaches the same pool to it.)
func (b *IndexedBackend) SetBufferPool(p *mempool.Pool) { b.pool = p }

// Read implements storage.Backend for whole samples: one ranged read of
// the record, with payload verification — and transparent decompression —
// when bytes are available (a batch of one, see batchReader). Samples are
// not range-addressable: a ranged request is ErrUnsupported.
func (b *IndexedBackend) Read(req storage.Request) (storage.Response, error) {
	if len(req.Ranges) > 0 {
		return storage.Response{}, fmt.Errorf("recordio: ranged read of sample %q: %w", req.Name, storage.ErrUnsupported)
	}
	r := b.readers.Get().(*batchReader)
	defer b.readers.Put(r)
	r.name[0] = req.Name
	out, err := r.read(r.name[:], r.sample[:0], req.Ctx)
	if err != nil {
		return storage.Response{}, err
	}
	return storage.Response{Data: out[0]}, nil
}

// Size implements storage.Backend from the index alone (no I/O).
func (b *IndexedBackend) Size(name string) (int64, error) {
	e, ok := b.ix.Lookup(name)
	if !ok {
		return 0, &storage.NotExistError{Name: name}
	}
	return e.PayloadSize(), nil
}

// ShardIterator reads one shard sequentially through ranged reads in
// large chunks, amortizing the device's per-request cost across many
// records — the mechanism that makes packed formats fast on per-request-
// latency-dominated storage.
type ShardIterator struct {
	backend   storage.Backend
	shard     string
	shardSize int64
	chunk     int64

	buf    []byte // only populated by real backends
	bufLen int64  // valid bytes in the current chunk (modeled backends: length only)
	bufOff int64  // shard offset of the chunk start
	pos    int64  // absolute shard offset of the next record
	real   bool
}

// NewShardIterator opens a sequential reader over one shard. chunkBytes
// controls the read granularity (e.g. 1 MiB).
func NewShardIterator(backend storage.Backend, shard string, shardSize, chunkBytes int64) (*ShardIterator, error) {
	if chunkBytes < headerSize+1 {
		return nil, fmt.Errorf("recordio: chunk size %d too small", chunkBytes)
	}
	return &ShardIterator{backend: backend, shard: shard, shardSize: shardSize, chunk: chunkBytes}, nil
}

// readAt reads n bytes of the shard at the iterator's position.
func (it *ShardIterator) readAt(n int64) (storage.Data, error) {
	resp, err := it.backend.Read(storage.Request{Name: it.shard, Ranges: []storage.Range{{Off: it.pos, N: n}}})
	if err != nil {
		return storage.Data{}, err
	}
	return resp.Views[0], nil
}

// refill loads the chunk containing pos.
func (it *ShardIterator) refill() error {
	data, err := it.readAt(it.chunk)
	if err != nil {
		return err
	}
	it.bufOff = it.pos
	it.bufLen = data.Size
	it.buf = data.Bytes
	it.real = data.Bytes != nil
	return nil
}

// Next returns the next record's payload bytes (nil payload with a
// positive length for modeled backends) and false at end of shard.
func (it *ShardIterator) Next() (payload []byte, payloadLen int64, ok bool, err error) {
	if it.pos >= it.shardSize {
		return nil, 0, false, nil
	}
	// Ensure the full record is inside the buffered chunk; re-read from
	// pos when the header or payload straddles the boundary.
	avail := it.bufOff + it.bufLen - it.pos
	if avail < headerSize {
		if err := it.refill(); err != nil {
			return nil, 0, false, err
		}
		avail = it.bufLen
		if avail < headerSize {
			return nil, 0, false, fmt.Errorf("%w: shard %s truncated at %d", ErrCorrupt, it.shard, it.pos)
		}
	}
	if it.real {
		rel := it.pos - it.bufOff
		// Peek the length; refill if the payload straddles the chunk.
		if int64(len(it.buf))-rel >= headerSize {
			n := int64(uint32(it.buf[rel]) | uint32(it.buf[rel+1])<<8 | uint32(it.buf[rel+2])<<16 | uint32(it.buf[rel+3])<<24)
			if rel+headerSize+n > int64(len(it.buf)) {
				if headerSize+n > it.chunk {
					// Oversized record: read it exactly.
					data, err := it.readAt(headerSize + n)
					if err != nil {
						return nil, 0, false, err
					}
					p, recLen, err := Decode(data.Bytes)
					if err != nil {
						return nil, 0, false, err
					}
					it.pos += recLen
					return p, int64(len(p)), true, nil
				}
				if err := it.refill(); err != nil {
					return nil, 0, false, err
				}
				rel = 0
			}
		}
		p, recLen, err := Decode(it.buf[rel:])
		if err != nil {
			return nil, 0, false, err
		}
		it.pos += recLen
		return p, int64(len(p)), true, nil
	}
	// Modeled backend: no bytes; record boundaries come from the caller's
	// index — the iterator cannot parse lengths, so modeled iteration uses
	// NextModeled with an explicit record length.
	return nil, 0, false, fmt.Errorf("recordio: modeled shards require NextModeled (no payload bytes)")
}

// NextModeled advances the iterator over a modeled (payloadless) backend
// using an externally known record length (from the Index). It charges the
// device only when crossing into an unbuffered chunk.
func (it *ShardIterator) NextModeled(recordLen int64) (ok bool, err error) {
	if it.pos >= it.shardSize {
		return false, nil
	}
	end := it.pos + recordLen
	for it.bufOff+it.bufLen < end {
		// Advance chunk-by-chunk until the record is covered.
		it.pos = maxI64(it.pos, it.bufOff+it.bufLen)
		if err := it.refill(); err != nil {
			return false, err
		}
		if it.bufLen == 0 {
			return false, fmt.Errorf("%w: shard %s truncated", ErrCorrupt, it.shard)
		}
	}
	it.pos = end
	return true, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
