package lz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The three payload shapes the codec is measured on. benchShape is what
// the real-mode benchmark's generator writes (first half pseudorandom,
// second half one 64-byte pattern repeated); incompressible is JPEG-like;
// textLike is a Zipf-weighted word stream with many short, near matches.

func benchShape(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	rng.Read(buf[:n/2])
	var pattern [64]byte
	rng.Read(pattern[:])
	for i := n / 2; i < n; i += copy(buf[i:], pattern[:]) {
	}
	return buf
}

func incompressible(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func textLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([][]byte, 2048)
	for i := range vocab {
		w := make([]byte, 2+rng.Intn(9))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = w
	}
	zipf := rand.NewZipf(rng, 1.2, 4, uint64(len(vocab)-1))
	buf := make([]byte, 0, n+16)
	for len(buf) < n {
		buf = append(buf, vocab[zipf.Uint64()]...)
		if rng.Intn(12) == 0 {
			buf = append(buf, '.', '\n')
		} else {
			buf = append(buf, ' ')
		}
	}
	return buf[:n]
}

var lzShapes = []struct {
	name string
	gen  func(n int, seed int64) []byte
}{
	{"bench", benchShape},
	{"incompressible", incompressible},
	{"text", textLike},
}

// lzDecoders are the two implementations of the one stream format.
var lzDecoders = []struct {
	name string
	fn   func(dst, src []byte) error
}{{"kernel", DecompressInto}, {"oracle", refDecompressInto}}

// checkAgainstOracle runs one input through both encoders and all four
// encoder/decoder pairings: the format has one definition, so a stream
// from either encoder must decode under either decoder.
func checkAgainstOracle(t *testing.T, src []byte) (newLen, refLen int) {
	t.Helper()
	const canary = 0xA5
	prefix := []byte{canary, canary, canary}
	out, ok := AppendCompress(prefix, src)
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("len %d: AppendCompress clobbered dst's existing bytes", len(src))
	}
	if !ok && len(out) != len(prefix) {
		t.Fatalf("len %d: declined but returned %d appended bytes", len(src), len(out)-len(prefix))
	}
	comp := out[len(prefix):]
	ref, refOK := refCompress(src)

	streams := map[string][]byte{}
	newLen, refLen = -1, -1
	if ok {
		if len(comp) >= len(src) {
			t.Fatalf("len %d: accepted encoding is not smaller (%d)", len(src), len(comp))
		}
		streams["kernel"], newLen = comp, len(comp)
	}
	if refOK {
		streams["oracle"], refLen = ref, len(ref)
	}
	for enc, stream := range streams {
		for _, dec := range lzDecoders {
			dst := make([]byte, len(src))
			if err := dec.fn(dst, stream); err != nil {
				t.Fatalf("len %d: %s-encoded stream under %s decoder: %v", len(src), enc, dec.name, err)
			}
			if !bytes.Equal(dst, src) {
				t.Fatalf("len %d: %s-encoded stream under %s decoder: wrong bytes", len(src), enc, dec.name)
			}
		}
	}
	return newLen, refLen
}

func TestLZCrossEncoder(t *testing.T) {
	for _, sh := range lzShapes {
		for _, n := range []int{100, 4 << 10, 16 << 10, 200 << 10} {
			checkAgainstOracle(t, sh.gen(n, int64(n)))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		src := make([]byte, rng.Intn(6<<10))
		alpha := 1 + rng.Intn(256)
		for i := range src {
			src[i] = byte(rng.Intn(alpha))
		}
		checkAgainstOracle(t, src)
	}
}

func TestLZTableCases(t *testing.T) {
	t.Run("lengths 0-16", func(t *testing.T) {
		for n := 0; n <= 16; n++ {
			checkAgainstOracle(t, bytes.Repeat([]byte{9}, n))
			checkAgainstOracle(t, []byte("abcdabcdabcdabcd!")[:n])
			checkAgainstOracle(t, incompressible(n, int64(n)))
		}
	})
	t.Run("overlap offsets 1-7", func(t *testing.T) {
		for off := 1; off <= 7; off++ {
			for _, run := range []int{off + 1, 64, 4093} {
				unit := incompressible(off, int64(off))
				src := append([]byte("head:"), bytes.Repeat(unit, run/off+2)[:off+run]...)
				src = append(src, "tail"...)
				if n, _ := checkAgainstOracle(t, src); run >= 64 && n < 0 {
					t.Errorf("offset %d run %d: declined", off, run)
				}
				// The same shape as a hand-built stream, so the decoder sees
				// exactly offset < length whatever the encoder chose.
				stream := appendLiterals(nil, unit)
				stream = append(stream, lzTagCopy, byte(off))
				stream = binary.AppendUvarint(stream, uint64(run))
				want := bytes.Repeat(unit, run/off+2)[:off+run]
				for _, dec := range lzDecoders {
					dst := make([]byte, len(want))
					if err := dec.fn(dst, stream); err != nil || !bytes.Equal(dst, want) {
						t.Fatalf("offset %d run %d: %s decoder: err %v, equal %v", off, run, dec.name, err, bytes.Equal(dst, want))
					}
				}
			}
		}
	})
	t.Run("copy source straddles literal/copy boundary", func(t *testing.T) {
		// literal "abcdef", copy(off 3, len 5) -> "defde", then a copy whose
		// source starts in the literal and runs into the first copy's
		// output: off 8 len 7 reads "defdefd"[...] across the seam.
		stream := appendLiterals(nil, []byte("abcdef"))
		stream = append(stream, lzTagCopy, 3, 5)
		stream = append(stream, lzTagCopy, 8, 7)
		want := []byte("abcdef" + "defde" + "defdefd")
		for _, dec := range lzDecoders {
			dst := make([]byte, len(want))
			if err := dec.fn(dst, stream); err != nil || !bytes.Equal(dst, want) {
				t.Fatalf("%s decoder: err %v, got %q want %q", dec.name, err, dst, want)
			}
		}
		checkAgainstOracle(t, want)
	})
	t.Run("1 MiB zeros", func(t *testing.T) {
		if n, _ := checkAgainstOracle(t, make([]byte, 1<<20)); n < 0 || n > 16 {
			t.Errorf("1 MiB of zeros encoded to %d bytes, want one literal and one copy", n)
		}
	})
	t.Run("1 MiB random", func(t *testing.T) {
		if n, _ := checkAgainstOracle(t, incompressible(1<<20, 1)); n >= 0 {
			t.Errorf("1 MiB of random bytes accepted at %d bytes", n)
		}
	})
}

// TestLZRatioGuard bounds what skipping may cost: the kernel's output
// stays within 3% of the every-byte greedy oracle on the benchmark's shape
// and on text, at the mean file sizes of the benchmark's datasets. The
// 4 KiB row is looser on purpose: there the random half ends while the
// step is still climbing (11, not the cap of 16, which divides the
// 64-byte period), the first probe pair to coincide is two periods apart,
// and one extra period of 64 bytes is 3% of a 2 KiB encoding.
func TestLZRatioGuard(t *testing.T) {
	sizes := []struct {
		n     int
		limit float64
	}{{4 << 10, 1.05}, {16 << 10, 1.03}, {110 << 10, 1.03}}
	for _, sh := range lzShapes {
		if sh.name == "incompressible" {
			continue
		}
		for _, sz := range sizes {
			var newSum, refSum int
			for seed := int64(1); seed <= 8; seed++ {
				nl, rl := checkAgainstOracle(t, sh.gen(sz.n, seed))
				if nl < 0 || rl < 0 {
					t.Fatalf("%s/%d seed %d: declined (new %d, oracle %d)", sh.name, sz.n, seed, nl, rl)
				}
				newSum += nl
				refSum += rl
			}
			ratio := float64(newSum) / float64(refSum)
			t.Logf("%s/%d: new %d B, oracle %d B, ratio %.4f", sh.name, sz.n, newSum, refSum, ratio)
			if ratio > sz.limit {
				t.Errorf("%s/%d: new encoder's output is %.4fx the oracle's (limit %.2fx)", sh.name, sz.n, ratio, sz.limit)
			}
		}
	}
}

// TestLZCodecAllocs pins both kernels at zero allocations once the caller
// brings the buffers: what lets the tier compress into recycled scratch
// and compressed records decode into pooled buffers.
func TestLZCodecAllocs(t *testing.T) {
	for _, sh := range lzShapes {
		src := sh.gen(16<<10, 3)
		scratch := make([]byte, 0, len(src))
		if n := testing.AllocsPerRun(50, func() { scratch, _ = AppendCompress(scratch[:0], src) }); n != 0 {
			t.Errorf("%s: AppendCompress into sufficient scratch: %v allocs/op, want 0", sh.name, n)
		}
		comp, ok := AppendCompress(nil, src)
		if !ok {
			continue
		}
		dst := make([]byte, len(src))
		if n := testing.AllocsPerRun(50, func() {
			if err := DecompressInto(dst, comp); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: DecompressInto: %v allocs/op, want 0", sh.name, n)
		}
	}
}

// lzBenchSize is the mean file size of the benchmark's chain workloads.
const lzBenchSize = 16 << 10

var lzSink []byte

func BenchmarkLZCompress(b *testing.B) {
	for _, sh := range lzShapes {
		src := sh.gen(lzBenchSize, 1)
		b.Run(sh.name+"/kernel", func(b *testing.B) {
			scratch := make([]byte, 0, len(src))
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scratch, _ = AppendCompress(scratch[:0], src)
			}
			lzSink = scratch
		})
		b.Run(sh.name+"/oracle", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				lzSink, _ = refCompress(src)
			}
		})
	}
}

func BenchmarkLZDecompress(b *testing.B) {
	for _, sh := range lzShapes {
		src := sh.gen(lzBenchSize, 1)
		comp, ok := AppendCompress(nil, src)
		if !ok {
			// Incompressible payloads are stored verbatim and never reach
			// the decoder; measure the closest thing, one literal run.
			comp = appendLiterals(nil, src)
		}
		dst := make([]byte, len(src))
		for _, dec := range lzDecoders {
			b.Run(sh.name+"/"+dec.name, func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.fn(dst, comp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestLZCodecSpeedGate holds the kernels at twice the oracle's speed, in
// both directions, on the benchmark's payload shape. Each round times the
// two back to back and the best per-round ratio counts: adjacent runs see
// the same machine load, and load only ever inflates a run.
func TestLZCodecSpeedGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: skipped with -short and under -race")
	}
	const (
		rounds = 7
		iters  = 400
	)
	src := benchShape(lzBenchSize, 2)
	comp, ok := AppendCompress(nil, src)
	if !ok {
		t.Fatal("bench shape should compress")
	}
	scratch := make([]byte, 0, len(src))
	dst := make([]byte, len(src))
	timeIt := func(fn func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return time.Since(start)
	}
	gates := []struct {
		name     string
		ref, new func()
	}{
		{"compress",
			func() { lzSink, _ = refCompress(src) },
			func() { scratch, _ = AppendCompress(scratch[:0], src) }},
		{"decompress",
			func() { _ = refDecompressInto(dst, comp) },
			func() { _ = DecompressInto(dst, comp) }},
	}
	for _, g := range gates {
		g.ref()
		g.new()
		best := 0.0
		var bestRef, bestNew time.Duration
		for i := 0; i < rounds; i++ {
			r, n := timeIt(g.ref), timeIt(g.new)
			if s := float64(r) / float64(n); s > best {
				best, bestRef, bestNew = s, r, n
			}
		}
		perOp := func(d time.Duration) string { return fmt.Sprint(d / iters) }
		t.Logf("%s: oracle %s/op, kernel %s/op, speed-up %.2fx", g.name, perOp(bestRef), perOp(bestNew), best)
		if best < 2 {
			t.Errorf("%s: kernel is %.2fx the oracle on the bench shape, want >= 2x", g.name, best)
		}
	}
}
