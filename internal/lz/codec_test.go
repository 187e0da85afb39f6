package lz

import (
	"bytes"
	"math/rand"
	"testing"
)

// lzRoundTrip compresses src and decodes it back, failing on mismatch.
// Returns the compressed size, or -1 when the codec declined.
func lzRoundTrip(t *testing.T, src []byte) int {
	t.Helper()
	comp, ok := AppendCompress(nil, src)
	if !ok {
		return -1
	}
	if len(comp) >= len(src) {
		t.Fatalf("accepted encoding is not smaller: %d >= %d", len(comp), len(src))
	}
	dst := make([]byte, len(src))
	if err := DecompressInto(dst, comp); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("roundtrip mismatch")
	}
	return len(comp)
}

func TestLZRoundTrip(t *testing.T) {
	// Constant run: near-total compression via one overlapping copy.
	if n := lzRoundTrip(t, bytes.Repeat([]byte{0x42}, 64<<10)); n < 0 || n > 64 {
		t.Errorf("constant 64 KiB compressed to %d bytes, want a handful", n)
	}
	// Repeating structured block.
	block := []byte("sample-payload-0123456789abcdef")
	if n := lzRoundTrip(t, bytes.Repeat(block, 512)); n < 0 || n > len(block)*8 {
		t.Errorf("repeated block compressed to %d", n)
	}
	// Pseudo-random: must decline rather than inflate.
	rnd := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(rnd)
	if _, ok := AppendCompress(nil, rnd); ok {
		t.Error("pseudo-random payload should be incompressible")
	}
	// Tiny payloads decline (no room for framing to win).
	for n := 0; n < lzMinMatch+2; n++ {
		if _, ok := AppendCompress(nil, bytes.Repeat([]byte{1}, n)); ok {
			t.Errorf("%d-byte payload accepted", n)
		}
	}
	// Mixed content: random prefix, compressible suffix.
	mixed := append(append([]byte(nil), rnd[:8<<10]...), bytes.Repeat([]byte{7}, 24<<10)...)
	if n := lzRoundTrip(t, mixed); n < 0 || n > 10<<10 {
		t.Errorf("mixed payload compressed to %d, want ~8 KiB", n)
	}
}

func TestLZRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(8<<10)
		src := make([]byte, size)
		// Alphabet size controls compressibility; small alphabets repeat.
		alpha := 1 + rng.Intn(256)
		for i := range src {
			src[i] = byte(rng.Intn(alpha))
		}
		comp, ok := AppendCompress(nil, src)
		if !ok {
			continue
		}
		dst := make([]byte, len(src))
		if err := DecompressInto(dst, comp); err != nil {
			t.Fatalf("trial %d (size %d, alpha %d): %v", trial, size, alpha, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("trial %d: roundtrip mismatch", trial)
		}
	}
}

func TestDecompressIntoRejectsCorruption(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 1024)
	comp, ok := AppendCompress(nil, src)
	if !ok {
		t.Fatal("fixture should compress")
	}
	cases := map[string]struct {
		dst []byte
		src []byte
	}{
		"dst too small":    {make([]byte, len(src)-1), comp},
		"dst too large":    {make([]byte, len(src)+1), comp},
		"unknown tag":      {make([]byte, len(src)), append([]byte{0xFF}, comp...)},
		"truncated stream": {make([]byte, len(src)), comp[:len(comp)/2]},
		"empty stream":     {make([]byte, len(src)), nil},
		"copy before start": {make([]byte, len(src)), func() []byte {
			// copy with offset 4 as the very first op: nothing to copy from.
			return []byte{lzTagCopy, 4, 4}
		}()},
		"zero offset": {make([]byte, len(src)), []byte{lzTagCopy, 0, 4}},
		"literal overrun": {make([]byte, len(src)), func() []byte {
			return []byte{lzTagLiteral, 200, 'x'} // promises 200 bytes, carries 1
		}()},
	}
	for name, tc := range cases {
		if err := DecompressInto(tc.dst, tc.src); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

// BenchmarkDecompressInto pins the decoder's zero-allocation property —
// the load-bearing fact behind serving compressed shards through pooled
// buffers. CI runs this at -benchtime 1x; it must stay cheap.
func BenchmarkDecompressInto(b *testing.B) {
	src := bytes.Repeat([]byte("prisma-sample-abcdefghijklmnop"), 2184) // ~64 KiB
	comp, ok := AppendCompress(nil, src)
	if !ok {
		b.Fatal("fixture should compress")
	}
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressInto(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(dst, src) {
		b.Fatal("mismatch")
	}
}
