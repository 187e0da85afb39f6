package recordio

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
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

func TestPackDirCompressedRoundTrip(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	want := map[string][]byte{
		"a/compressible.bin": bytes.Repeat([]byte("imagenet-tile"), 2048),
		"b/random.bin":       make([]byte, 16<<10),
		"c/tiny.bin":         []byte("xy"),
	}
	rand.New(rand.NewSource(3)).Read(want["b/random.bin"])
	var samples []dataset.Sample
	for name, content := range want {
		path := filepath.Join(srcDir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, dataset.Sample{Name: name, Size: int64(len(content))})
	}
	man, err := dataset.New(samples)
	if err != nil {
		t.Fatal(err)
	}

	ix, err := PackDirOpts(srcDir, man, dstDir, "packed", 1<<20, PackOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.StoredBytes >= ix.PayloadBytes {
		t.Fatalf("compression saved nothing: stored %d >= payload %d", ix.StoredBytes, ix.PayloadBytes)
	}
	ce, _ := ix.Lookup("a/compressible.bin")
	if ce.Codec != CodecLZ || ce.Raw != int64(len(want["a/compressible.bin"])) {
		t.Fatalf("compressible entry = %+v, want CodecLZ with Raw set", ce)
	}
	re, _ := ix.Lookup("b/random.bin")
	if re.Codec != CodecNone || re.Raw != 0 {
		t.Fatalf("random entry = %+v, want verbatim", re)
	}

	// Read everything back through the indexed backend, pooled.
	store := storagetest.OpenDir(t, dstDir)
	back := NewIndexedBackend(ix, store)
	pool := mempool.New(mempool.Config{})
	store.SetBufferPool(pool)
	back.SetBufferPool(pool)
	for name, content := range want {
		d, err := readFile(back, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(d.Bytes, content) {
			t.Fatalf("%s: payload mismatch", name)
		}
		if n, err := back.Size(name); err != nil || n != int64(len(content)) {
			t.Fatalf("%s: Size = %d, %v", name, n, err)
		}
		d.Release()
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked through the compressed read path", n)
	}
}

func TestPackDirDedupAccounting(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	shared := bytes.Repeat([]byte{9, 9, 7}, 4000)
	files := map[string][]byte{
		"dup-0.bin":    shared,
		"dup-1.bin":    shared,
		"dup-2.bin":    shared,
		"distinct.bin": bytes.Repeat([]byte{1, 2, 3}, 4000),
	}
	var samples []dataset.Sample
	for _, name := range []string{"dup-0.bin", "dup-1.bin", "dup-2.bin", "distinct.bin"} {
		if err := os.WriteFile(filepath.Join(srcDir, name), files[name], 0o644); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, dataset.Sample{Name: name, Size: int64(len(files[name]))})
	}
	man, err := dataset.New(samples)
	if err != nil {
		t.Fatal(err)
	}

	ix, err := PackDirOpts(srcDir, man, dstDir, "packed", 1<<20, PackOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.DedupHits != 2 {
		t.Fatalf("DedupHits = %d, want 2 (dup-1, dup-2 alias dup-0)", ix.DedupHits)
	}
	if want := int64(2 * len(shared)); ix.DedupSavedBytes != want {
		t.Fatalf("DedupSavedBytes = %d, want %d", ix.DedupSavedBytes, want)
	}
	if want := int64(len(shared) + len(files["distinct.bin"])); ix.StoredBytes != want {
		t.Fatalf("StoredBytes = %d, want %d (aliases not recounted)", ix.StoredBytes, want)
	}
	e0, _ := ix.Lookup("dup-0.bin")
	e1, _ := ix.Lookup("dup-1.bin")
	if !e1.Dedup || e1.Shard != e0.Shard || e1.Offset != e0.Offset {
		t.Fatalf("alias entry %+v does not point at the first record %+v", e1, e0)
	}

	// Aliased names must read back independently.
	back := NewIndexedBackend(ix, storagetest.OpenDir(t, dstDir))
	for name, content := range files {
		d, err := readFile(back, name)
		if err != nil || !bytes.Equal(d.Bytes, content) {
			t.Fatalf("read %s: %v", name, err)
		}
		d.Release()
	}
}

func TestPackDirCompressAndDedupCompose(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	shared := bytes.Repeat([]byte("wave"), 8<<10)
	var samples []dataset.Sample
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("s%d.bin", i)
		if err := os.WriteFile(filepath.Join(srcDir, name), shared, 0o644); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, dataset.Sample{Name: name, Size: int64(len(shared))})
	}
	man, err := dataset.New(samples)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := PackDirOpts(srcDir, man, dstDir, "packed", 1<<20, PackOptions{Compress: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.DedupHits != 3 {
		t.Fatalf("DedupHits = %d, want 3", ix.DedupHits)
	}
	if ix.StoredBytes >= int64(len(shared)) {
		t.Fatalf("one deduped compressed record should be < one raw payload: stored %d", ix.StoredBytes)
	}
	back := NewIndexedBackend(ix, storagetest.OpenDir(t, dstDir))
	for i := 0; i < 4; i++ {
		d, err := readFile(back, fmt.Sprintf("s%d.bin", i))
		if err != nil || !bytes.Equal(d.Bytes, shared) {
			t.Fatalf("read s%d: %v", i, err)
		}
		d.Release()
	}
}

func TestPackManifestCompressedAccounting(t *testing.T) {
	var samples []dataset.Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, dataset.Sample{Name: fmt.Sprintf("m%02d", i), Size: 10_000})
	}
	man := dataset.MustNew(samples)
	ix, shards, err := PackManifestCompressed(man, "packed", 1<<20, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.StoredBytes != 40_000 || ix.PayloadBytes != 100_000 {
		t.Fatalf("stored %d / payload %d, want 40000 / 100000", ix.StoredBytes, ix.PayloadBytes)
	}
	e, _ := ix.Lookup("m00")
	if e.Codec != CodecLZ || e.Raw != 10_000 || e.StoredSize() != 4000 {
		t.Fatalf("entry = %+v", e)
	}
	// The shard manifest carries compressed record volume.
	total := int64(0)
	for i := 0; i < shards.Len(); i++ {
		total += shards.Sample(i).Size
	}
	if want := int64(10 * (4000 + 8)); total != want {
		t.Fatalf("shard bytes = %d, want %d", total, want)
	}
	if _, _, err := PackManifestCompressed(man, "p", 1<<20, 0); err == nil {
		t.Error("ratio 0 accepted")
	}
	if _, _, err := PackManifestCompressed(man, "p", 1<<20, 1.5); err == nil {
		t.Error("ratio > 1 accepted")
	}
}

func TestMemBackendReadRangePooled(t *testing.T) {
	mem := storage.NewMemBackend()
	content := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 100)
	mem.Add("f", content)
	pool := mempool.New(mempool.Config{})
	mem.SetBufferPool(pool)

	d, err := readRange(mem, "f", 10, 20)
	if err != nil || d.Size != 20 || !bytes.Equal(d.Bytes, content[10:30]) {
		t.Fatalf("ReadRange = %+v, %v", d, err)
	}
	if d.Ref == nil {
		t.Fatal("pooled backend returned unpooled range")
	}
	d.Release()

	// Past-EOF truncation, DirBackend-style.
	d, err = readRange(mem, "f", int64(len(content))-5, 100)
	if err != nil || d.Size != 5 {
		t.Fatalf("truncated ReadRange = %+v, %v", d, err)
	}
	d.Release()
	d, err = readRange(mem, "f", int64(len(content))+10, 4)
	if err != nil || d.Size != 0 {
		t.Fatalf("past-EOF ReadRange = %+v, %v", d, err)
	}
	d.Release()
	if _, err := readRange(mem, "f", -1, 4); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := readRange(mem, "ghost", 0, 4); err == nil {
		t.Error("missing file accepted")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked", n)
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
