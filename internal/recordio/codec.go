// Transparent per-sample compression for packed shards. The codec is a
// small byte-oriented LZ77 in the snappy family: greedy hash-table
// matching on the encode side, and a decode loop that writes straight
// into a caller-provided buffer of the known uncompressed size. The
// decoder allocates nothing — unlike stdlib flate, whose dynamic-Huffman
// table construction allocates per block and would break the hot path's
// 0 allocs/op gate — which is what lets compressed records decode in
// place into pooled buffers.
//
// Compressed stream format (raw size is carried by the index, not the
// stream):
//
//	literal run: 0x00 | uvarint(n) | n bytes
//	back copy:   0x01 | uvarint(offset) | uvarint(length)
//
// A copy references the last `offset` bytes of the output produced so
// far; overlapping copies (offset < length) replicate runs, RLE-style.
package recordio

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Codec identifies a record payload's encoding in the index.
type Codec uint8

const (
	// CodecNone marks a plain payload stored verbatim.
	CodecNone Codec = 0
	// CodecLZ marks a payload compressed with the package's LZ codec.
	CodecLZ Codec = 1
)

func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecLZ:
		return "lz"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

const (
	lzTagLiteral = 0x00
	lzTagCopy    = 0x01

	lzMinMatch = 4
	// The matcher's hash table has between 2^lzMinTableBits and
	// 2^lzMaxTableBits slots, the smallest power of two covering the input.
	lzMinTableBits = 8
	lzMaxTableBits = 13
	// After 2^lzSkipBits consecutive probes miss, the matcher starts
	// stepping over bytes: the step grows by one per further 2^lzSkipBits
	// misses up to lzMaxSkip, and resets at the next match.
	lzSkipBits = 5
	lzMaxSkip  = 16
)

// Slicing to the exact width leaves one bounds check per load, not two.
func lzLoad32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i : i+4]) }
func lzLoad64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8]) }

// lzHash maps a 4-byte window to a table slot (Knuth multiplicative).
// shift already confines the result to the table; the mask is a no-op
// that lets the compiler drop the index check.
func lzHash(v uint32, shift uint) uint32 {
	return (v * 2654435761) >> shift & (1<<lzMaxTableBits - 1)
}

// appendLiterals emits src as one literal run (no-op when empty).
func appendLiterals(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	dst = append(dst, lzTagLiteral)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// AppendCompress appends the LZ encoding of src to dst and returns the
// extended slice and true — but only when the encoding is strictly
// smaller than src. Incompressible payloads return dst at its original
// length and false, and should be stored as CodecNone: transparent
// compression must never inflate a shard. Either way the returned slice
// keeps whatever capacity the attempt grew, so a caller looping over
// samples passes out[:0] back in and stops allocating once the scratch
// has seen its largest sample (cap(dst)-len(dst) >= len(src) suffices
// for every input that compresses at all).
//
// The matcher is greedy, snappy-style: hash the 4 bytes at s, look the
// slot up, verify the candidate by comparing, extend the match backward
// over pending literals and forward 8 bytes per step. A zeroed table
// needs no "empty" marker — slot value 0 is position 0, a real earlier
// position that the verify rejects or accepts like any other — so one
// memclr of the array is the whole per-call set-up. Runs that keep
// missing (JPEG-like payloads, already-compressed data) are skipped over
// with a growing step; the backward extension recovers the bytes the
// step jumped across when a match is finally found, so the ratio cost of
// skipping is the stretch of repeating data before its first probed
// position repeats, bounded by the lzMaxSkip cap.
func AppendCompress(dst, src []byte) ([]byte, bool) {
	base := len(dst)
	if len(src) < lzMinMatch+2 {
		return dst, false
	}
	dst = slices.Grow(dst, len(src))

	shift := uint(32 - lzMinTableBits)
	for n := 1 << lzMinTableBits; n < 1<<lzMaxTableBits && n < len(src); n <<= 1 {
		shift--
	}
	// Positions are stored truncated to 32 bits; every candidate is
	// verified against src, so a wrapped position is at worst a miss.
	var table [1 << lzMaxTableBits]uint32

	sLimit := len(src) - lzMinMatch // last position with 4 loadable bytes
	lit := 0                        // start of the pending literal run
	s := 1                          // position 0 can only ever be a literal
	skip := 1 << lzSkipBits
	for s <= sLimit {
		cur := lzLoad32(src, s)
		h := lzHash(cur, shift)
		cand := int(table[h])
		table[h] = uint32(s)
		if cur != lzLoad32(src, cand) {
			s += skip >> lzSkipBits
			if skip < lzMaxSkip<<lzSkipBits {
				skip++
			}
			continue
		}
		skip = 1 << lzSkipBits

		// Extend backward over pending literals, then forward: whole
		// words while they agree, then to the first differing byte (the
		// lowest set bit of the XOR of two little-endian words).
		start, off := s, s-cand
		for start > lit && start > off && src[start-1] == src[start-off-1] {
			start--
		}
		s += lzMinMatch
		for s+8 <= len(src) && lzLoad64(src, s) == lzLoad64(src, s-off) {
			s += 8
		}
		if s+8 <= len(src) {
			s += bits.TrailingZeros64(lzLoad64(src, s)^lzLoad64(src, s-off)) >> 3
		} else {
			for s < len(src) && src[s] == src[s-off] {
				s++
			}
		}

		dst = appendLiterals(dst, src[lit:start])
		dst = append(dst, lzTagCopy)
		dst = binary.AppendUvarint(dst, uint64(off))
		dst = binary.AppendUvarint(dst, uint64(s-start))
		lit = s
		if s <= sLimit {
			// Index the match's last byte so a repeat that begins just
			// inside it is still found.
			table[lzHash(lzLoad32(src, s-1), shift)] = uint32(s - 1)
		}
	}

	// Trailing literals cost their length plus two header bytes at least,
	// so an encoding that has not gained on src by here cannot win: skip
	// the copy (the whole of an incompressible payload).
	if lit < len(src) && len(dst)-base >= lit {
		return dst[:base], false
	}
	dst = appendLiterals(dst, src[lit:])
	if len(dst)-base >= len(src) {
		return dst[:base], false
	}
	return dst, true
}

// DecompressInto decodes src into dst, which must be exactly the
// record's uncompressed size (from the index entry). It performs no
// allocations: both buffers are caller-owned, so pooled buffers flow
// through untouched. Any framing violation — including a decoded size
// that does not fill dst exactly — reports ErrCorrupt.
func DecompressInto(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		tag := src[si]
		si++
		switch tag {
		case lzTagLiteral:
			n, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad literal length", ErrCorrupt)
			}
			si += k
			if n == 0 || n > uint64(len(src)-si) || n > uint64(len(dst)-di) {
				return fmt.Errorf("%w: literal run overruns buffer", ErrCorrupt)
			}
			copy(dst[di:], src[si:si+int(n)])
			si += int(n)
			di += int(n)
		case lzTagCopy:
			off, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad copy offset", ErrCorrupt)
			}
			si += k
			n, k := binary.Uvarint(src[si:])
			if k <= 0 {
				return fmt.Errorf("%w: bad copy length", ErrCorrupt)
			}
			si += k
			if off == 0 || off > uint64(di) || n == 0 || n > uint64(len(dst)-di) {
				return fmt.Errorf("%w: copy out of range", ErrCorrupt)
			}
			// Each pass copies from bytes already written — the source
			// [from, di) ends where the destination begins — so an
			// overlapping copy (offset < length) replicates its run by
			// doubling the written prefix instead of a byte at a time; a
			// non-overlapping one is done in the first pass.
			from, end := di-int(off), di+int(n)
			for di < end {
				di += copy(dst[di:end], dst[from:di])
			}
		default:
			return fmt.Errorf("%w: unknown tag %#02x", ErrCorrupt, tag)
		}
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, di, len(dst))
	}
	return nil
}

// ContentKey is a payload's dedup identity: packing two samples with the
// same key stores the bytes once and indexes both names at that record.
func ContentKey(payload []byte) [sha256.Size]byte {
	return sha256.Sum256(payload)
}
