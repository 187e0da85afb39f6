package lz

import (
	"encoding/binary"
	"fmt"
)

// The codec as it stood before the kernel rewrite, kept verbatim (names
// aside) as the conformance oracle: a greedy matcher that probes every
// byte against a 2^13-entry table refilled with -1 per call, and a decoder
// that back-copies a byte at a time. The production loops in codec.go must
// agree with these on every stream: same format, same accept/reject, same
// decoded bytes.

const refTableBits = 13

// refHash maps a 4-byte window to a table slot (Knuth multiplicative).
func refHash(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - refTableBits)
}

// refCompress encodes src with the LZ codec. It returns (compressed, true)
// only when the encoding is strictly smaller than src; incompressible
// payloads return (nil, false) and should be stored raw —
// transparent compression must never inflate a sample.
func refCompress(src []byte) ([]byte, bool) {
	if len(src) < lzMinMatch+2 {
		return nil, false
	}
	var table [1 << refTableBits]int32
	for i := range table {
		table[i] = -1
	}
	dst := make([]byte, 0, len(src))
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		h := refHash(src[i:])
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		n := lzMinMatch
		for i+n < len(src) && src[cand+n] == src[i+n] {
			n++
		}
		dst = appendLiterals(dst, src[litStart:i])
		dst = append(dst, lzTagCopy)
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		dst = binary.AppendUvarint(dst, uint64(n))
		i += n
		litStart = i
	}
	dst = appendLiterals(dst, src[litStart:])
	if len(dst) >= len(src) {
		return nil, false
	}
	return dst, true
}

// refDecompressInto decodes src into dst, which must be exactly the
// record's uncompressed size (from the index entry). It performs no
// allocations: both buffers are caller-owned, so pooled buffers flow
// through untouched. Any framing violation — including a decoded size
// that does not fill dst exactly — reports ErrCorrupt.
func refDecompressInto(dst, src []byte) error {
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
			// Byte-at-a-time on purpose: overlapping copies (offset <
			// length) must observe bytes written earlier in this same copy.
			from := di - int(off)
			for j := 0; j < int(n); j++ {
				dst[di+j] = dst[from+j]
			}
			di += int(n)
		default:
			return fmt.Errorf("%w: unknown tag %#02x", ErrCorrupt, tag)
		}
	}
	if di != len(dst) {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, di, len(dst))
	}
	return nil
}
