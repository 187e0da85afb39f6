package recordio

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the record decoder against arbitrary byte strings:
// it must never panic, and whenever it accepts a buffer the re-encoded
// record must round-trip to the same payload.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid records, empty, truncations, corruptions.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("seed payload"))
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:3])
	f.Add(valid[:headerSize])
	corrupted := append([]byte{}, valid...)
	corrupted[headerSize] ^= 0x55
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, recLen, err := Decode(data)
		if err != nil {
			return
		}
		if recLen < headerSize || recLen > int64(len(data)) {
			t.Fatalf("accepted record length %d outside [8, %d]", recLen, len(data))
		}
		// Round-trip: re-encoding the accepted payload reproduces the
		// record bytes.
		var out bytes.Buffer
		wr := NewWriter(&out)
		if _, _, err := wr.WriteRecord(payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:recLen]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// FuzzReaderStream feeds arbitrary streams to the streaming reader: no
// panics, and every accepted record passes its checksum by construction.
func FuzzReaderStream(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("a"))
	_, _, _ = w.WriteRecord([]byte("bb"))
	f.Add(buf.Bytes())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// FuzzLZ holds the LZ kernels to the oracle in codec_ref_test.go from
// both ends. As a payload, the input must round-trip through the encoder
// and both decoders. As a *stream* decoded into a buffer of rawLen bytes,
// it must never panic or touch a byte outside that buffer, and the kernel
// decoder must accept exactly what the oracle decoder accepts, with the
// same output.
func FuzzLZ(f *testing.F) {
	for _, sh := range lzShapes {
		src := sh.gen(600, 1)
		f.Add(src, uint16(len(src)))
		if comp, ok := AppendCompress(nil, src); ok {
			f.Add(comp, uint16(len(src)))
			f.Add(comp[:len(comp)/2], uint16(len(src)))
		}
		if ref, ok := refCompress(src); ok {
			f.Add(ref, uint16(len(src)))
		}
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{lzTagLiteral, 3, 'a', 'b', 'c', lzTagCopy, 1, 200, 1}, uint16(203)) // overlap, offset 1
	f.Add([]byte{lzTagLiteral, 3, 'a', 'b', 'c', lzTagCopy, 3, 9}, uint16(12))       // overlap, offset 3
	f.Add([]byte{lzTagCopy, 4, 4}, uint16(4))                                        // copy before start
	f.Add([]byte{lzTagLiteral, 200, 'x'}, uint16(200))                               // literal overrun
	f.Add([]byte{lzTagCopy, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, rawLen uint16) {
		checkAgainstOracle(t, data)

		const guard = 16
		decode := func(dec func(dst, src []byte) error) ([]byte, error) {
			backing := bytes.Repeat([]byte{0xA5}, guard+int(rawLen)+guard)
			dst := backing[guard : guard+int(rawLen)]
			err := dec(dst, data)
			for i, b := range backing {
				if (i < guard || i >= guard+int(rawLen)) && b != 0xA5 {
					t.Fatalf("byte %d outside dst[%d:%d] was written", i, guard, guard+int(rawLen))
				}
			}
			return dst, err
		}
		got, err := decode(DecompressInto)
		want, refErr := decode(refDecompressInto)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("kernel decoder: %v; oracle decoder: %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatal("both decoders accepted the stream with different output")
		}
	})
}
