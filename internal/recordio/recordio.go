// Package recordio implements a TFRecord-style packed container format —
// the "optimized data formats" class of storage optimization the paper
// contrasts with its own (§II cites TFRecord as a backend-oriented
// optimization that is equally framework-intrinsic). Many small samples
// are packed into a few large shard files; a sequential shard reader
// amortizes the device's fixed per-request cost over chunk-sized reads,
// which is why packed formats beat per-file access on random-read-hostile
// storage.
//
// Wire format per record:
//
//	uint32 payload length (little endian) | uint32 CRC-32C of payload | payload
//
// Shards are written with Writer, iterated with Reader (streaming) or read
// randomly via an Index (name → shard, offset, length). PackManifest packs
// a dataset into shard descriptors for modeled backends; PackDir packs
// real files on disk.
package recordio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// header is the fixed per-record prefix: length + checksum.
const headerSize = 8

// MaxRecordSize bounds a single record's payload; larger length prefixes
// indicate corruption (and would otherwise let a corrupt shard drive an
// arbitrary allocation).
const MaxRecordSize = 256 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a checksum or framing failure.
var ErrCorrupt = errors.New("recordio: corrupt record")

// Writer appends records to an io.Writer.
type Writer struct {
	w      io.Writer
	offset int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRecord appends one record and returns its starting offset and its
// total on-disk length (header + payload).
func (w *Writer) WriteRecord(payload []byte) (offset, length int64, err error) {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	offset = w.offset
	if _, err := w.w.Write(hdr[:]); err != nil {
		return 0, 0, err
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, 0, err
	}
	length = int64(headerSize + len(payload))
	w.offset += length
	return offset, length, nil
}

// Offset reports the next record's starting offset (the bytes written so
// far).
func (w *Writer) Offset() int64 { return w.offset }

// Reader streams records from an io.Reader.
type Reader struct {
	r io.Reader
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next record's payload, io.EOF at a clean end, or
// ErrCorrupt on framing/checksum failure.
func (r *Reader) Next() ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecordSize {
		return nil, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Decode parses one record out of buf (which must start at a record
// boundary), returning the payload and the total record length consumed.
func Decode(buf []byte) (payload []byte, recordLen int64, err error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("%w: short buffer", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint32(buf[0:4]))
	want := binary.LittleEndian.Uint32(buf[4:8])
	if n > MaxRecordSize {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	if int64(len(buf)) < headerSize+n {
		return nil, 0, fmt.Errorf("%w: record overruns buffer", ErrCorrupt)
	}
	payload = buf[headerSize : headerSize+n]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, headerSize + n, nil
}

// Entry locates one sample inside a shard.
type Entry struct {
	Shard  string // shard file name
	Offset int64  // record start (header included)
	Length int64  // total record length (header + stored payload)
	Codec  Codec  // stored-payload encoding (CodecNone = verbatim)
	Raw    int64  // uncompressed payload size; 0 means Length-headerSize
	Dedup  bool   // alias: points at a record indexed under another name
}

// StoredSize is the payload volume this entry occupies on disk
// (compressed size for CodecLZ entries).
func (e Entry) StoredSize() int64 {
	if n := e.Length - headerSize; n > 0 {
		return n
	}
	return 0
}

// PayloadSize is the sample size the entry decodes to — what callers of
// Read/Size observe, regardless of codec.
func (e Entry) PayloadSize() int64 {
	if e.Raw > 0 {
		return e.Raw
	}
	return e.StoredSize()
}

// Index maps sample names to their packed locations.
type Index struct {
	entries   map[string]Entry
	shards    []string
	shardSeen map[string]bool
	// PayloadBytes is the total decoded sample volume indexed (what
	// consumers receive).
	PayloadBytes int64
	// StoredBytes is the payload volume actually occupying shards:
	// compression shrinks it, and dedup aliases do not recount it.
	StoredBytes int64
	// DedupHits counts alias entries; DedupSavedBytes is the stored
	// volume those aliases avoided writing.
	DedupHits       int64
	DedupSavedBytes int64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{entries: make(map[string]Entry), shardSeen: make(map[string]bool)}
}

// Add registers a sample's location. Duplicate names are rejected.
func (ix *Index) Add(name string, e Entry) error {
	if _, dup := ix.entries[name]; dup {
		return fmt.Errorf("recordio: duplicate index entry %q", name)
	}
	ix.entries[name] = e
	if !ix.shardSeen[e.Shard] {
		ix.shardSeen[e.Shard] = true
		ix.shards = append(ix.shards, e.Shard)
	}
	ix.PayloadBytes += e.PayloadSize()
	if e.Dedup {
		ix.DedupHits++
		ix.DedupSavedBytes += e.StoredSize()
	} else {
		ix.StoredBytes += e.StoredSize()
	}
	return nil
}

// Lookup finds a sample.
func (ix *Index) Lookup(name string) (Entry, bool) {
	e, ok := ix.entries[name]
	return e, ok
}

// Len reports the number of indexed samples.
func (ix *Index) Len() int { return len(ix.entries) }

// Shards lists shard file names in first-seen order.
func (ix *Index) Shards() []string {
	out := make([]string, len(ix.shards))
	copy(out, ix.shards)
	return out
}
