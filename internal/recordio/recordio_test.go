package recordio

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 1000)}
	var offsets []int64
	for _, p := range payloads {
		off, length, err := w.WriteRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if length != int64(headerSize+len(p)) {
			t.Fatalf("length = %d", length)
		}
		offsets = append(offsets, off)
	}
	if offsets[1] != int64(headerSize+5) {
		t.Fatalf("offset[1] = %d", offsets[1])
	}
	r := NewReader(&buf)
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("tail err = %v, want EOF", err)
	}
}

func TestReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("payload"))
	raw := buf.Bytes()
	raw[headerSize] ^= 0xFF // flip a payload byte
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupt record accepted")
	}
	// Truncated payload.
	r = NewReader(bytes.NewReader(raw[:headerSize+2]))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestDecode(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_, _, _ = w.WriteRecord([]byte("hello"))
	p, n, err := Decode(buf.Bytes())
	if err != nil || string(p) != "hello" || n != int64(headerSize+5) {
		t.Fatalf("Decode = %q, %d, %v", p, n, err)
	}
	if _, _, err := Decode(buf.Bytes()[:3]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// Property: arbitrary payload sequences round-trip through the wire format.
func TestRoundTripProperty(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range payloads {
			if _, _, err := w.WriteRecord(p); err != nil {
				return false
			}
		}
		r := NewReader(&buf)
		for _, want := range payloads {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndex(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add("a", Entry{Shard: "s0", Offset: 0, Length: 108}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("b", Entry{Shard: "s1", Offset: 0, Length: 58}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("a", Entry{}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	e, ok := ix.Lookup("b")
	if !ok || e.Shard != "s1" {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if got := ix.Shards(); len(got) != 2 || got[0] != "s0" {
		t.Fatalf("Shards = %v", got)
	}
	if ix.PayloadBytes != 100+50 {
		t.Fatalf("PayloadBytes = %d", ix.PayloadBytes)
	}
}

func TestPackManifestLayout(t *testing.T) {
	man := dataset.MustNew([]dataset.Sample{
		{Name: "a", Size: 100}, {Name: "b", Size: 100}, {Name: "c", Size: 100},
	})
	// Shards of 250 bytes: a+b fit (216), c spills to shard 1.
	ix, shards, err := PackManifest(man, "packed", 250)
	if err != nil {
		t.Fatal(err)
	}
	if shards.Len() != 2 {
		t.Fatalf("shards = %d, want 2", shards.Len())
	}
	ea, _ := ix.Lookup("a")
	eb, _ := ix.Lookup("b")
	ec, _ := ix.Lookup("c")
	if ea.Shard != eb.Shard || ea.Shard == ec.Shard {
		t.Fatalf("layout wrong: %+v %+v %+v", ea, eb, ec)
	}
	if eb.Offset != 108 {
		t.Fatalf("b offset = %d, want 108", eb.Offset)
	}
	s0, _ := shards.Lookup(ea.Shard)
	if s0.Size != 216 {
		t.Fatalf("shard 0 size = %d, want 216", s0.Size)
	}
}

func TestPackManifestValidation(t *testing.T) {
	man := dataset.MustNew([]dataset.Sample{{Name: "a", Size: 1}})
	if _, _, err := PackManifest(man, "p", 4); err == nil {
		t.Fatal("tiny shard size accepted")
	}
}

func TestPackDirAndStreamBack(t *testing.T) {
	src := t.TempDir()
	samples := make([]dataset.Sample, 20)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("train/%03d.jpg", i), Size: int64(500 + i*37)}
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(src, man, 5); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ix, err := PackDir(src, man, dst, "packed", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 20 {
		t.Fatalf("indexed %d, want 20", ix.Len())
	}
	if len(ix.Shards()) < 2 {
		t.Fatalf("shards = %d, want > 1 at 4 KiB", len(ix.Shards()))
	}

	// Stream every shard back and verify bytes equal the originals.
	backend := storagetest.OpenDir(t, dst)
	srcBackend := storagetest.OpenDir(t, src)
	got := 0
	for _, shard := range ix.Shards() {
		size, err := backend.Size(shard)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewShardIterator(backend, shard, size, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for {
			payload, n, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if int64(len(payload)) != n {
				t.Fatalf("payload len %d != %d", len(payload), n)
			}
			got++
		}
	}
	if got != 20 {
		t.Fatalf("streamed %d records, want 20", got)
	}

	// Random access through the index matches original file contents.
	for i := 0; i < man.Len(); i++ {
		s := man.Sample(i)
		e, ok := ix.Lookup(s.Name)
		if !ok {
			t.Fatalf("missing index entry %s", s.Name)
		}
		data, err := readRange(backend, e.Shard, e.Offset, e.Length)
		if err != nil {
			t.Fatal(err)
		}
		payload, _, err := Decode(data.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := readFile(srcBackend, s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, orig.Bytes) {
			t.Fatalf("%s: packed payload differs from original", s.Name)
		}
	}
}

func TestShardIteratorChunkStraddling(t *testing.T) {
	// Records sized so that several straddle the 64-byte chunk boundary.
	src := t.TempDir()
	samples := make([]dataset.Sample, 10)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("%03d", i), Size: int64(30 + i*7)}
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(src, man, 9); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ix, err := PackDir(src, man, dst, "p", 1<<20) // single shard
	if err != nil {
		t.Fatal(err)
	}
	backend := storagetest.OpenDir(t, dst)
	shard := ix.Shards()[0]
	size, _ := backend.Size(shard)
	it, err := NewShardIterator(backend, shard, size, 64)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("streamed %d, want 10", count)
	}
}

func TestShardIteratorOversizedRecord(t *testing.T) {
	src := t.TempDir()
	man := dataset.MustNew([]dataset.Sample{{Name: "big", Size: 5000}, {Name: "small", Size: 1025}})
	if err := dataset.Generate(src, man, 3); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ix, err := PackDir(src, man, dst, "p", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	backend := storagetest.OpenDir(t, dst)
	shard := ix.Shards()[0]
	size, _ := backend.Size(shard)
	it, _ := NewShardIterator(backend, shard, size, 256) // chunk ≪ record
	var sizes []int64
	for {
		_, n, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sizes = append(sizes, n)
	}
	if len(sizes) != 2 || sizes[0] != 5000 || sizes[1] != 1025 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestIndexedBackendRealRoundTrip(t *testing.T) {
	src := t.TempDir()
	samples := make([]dataset.Sample, 12)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("s/%03d", i), Size: int64(700 + i*13)}
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(src, man, 2); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ix, err := PackDir(src, man, dst, "p", 4096)
	if err != nil {
		t.Fatal(err)
	}
	packed := NewIndexedBackend(ix, storagetest.OpenDir(t, dst))
	orig := storagetest.OpenDir(t, src)
	for i := 0; i < man.Len(); i++ {
		name := man.Sample(i).Name
		got, err := readFile(packed, name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := readFile(orig, name)
		if !bytes.Equal(got.Bytes, want.Bytes) {
			t.Fatalf("%s: packed bytes differ", name)
		}
		n, err := packed.Size(name)
		if err != nil || n != want.Size {
			t.Fatalf("%s: Size = %d, %v (want %d)", name, n, err, want.Size)
		}
	}
	if _, err := readFile(packed, "ghost"); err == nil {
		t.Fatal("missing sample read succeeded")
	}
	if _, err := packed.Size("ghost"); err == nil {
		t.Fatal("missing sample Size succeeded")
	}
}

func TestModeledShardIterationAmortizesDevice(t *testing.T) {
	// The headline effect: per-file reads pay the device's base latency
	// per sample; packed chunked reads pay it per chunk.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var rawTime, packedTime time.Duration
	var rawReads, packedReads int64
	s.Spawn("driver", func(*sim.Process) {
		const n = 1000
		samples := make([]dataset.Sample, n)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("f%04d", i), Size: 100_000}
		}
		man := dataset.MustNew(samples)
		spec := storage.DeviceSpec{BaseLatency: 300 * time.Microsecond, BytesPerSecond: 1.4e9, Channels: 1}

		// Raw per-file reads.
		rawDev, _ := storage.NewDevice(env, spec)
		raw := storage.NewModeledBackend(man, rawDev)
		start := env.Now()
		for i := 0; i < n; i++ {
			if _, err := readFile(raw, samples[i].Name); err != nil {
				t.Error(err)
				return
			}
		}
		rawTime = env.Now() - start
		rawReads = rawDev.Stats().Reads

		// Packed sequential reads, 4 MiB chunks.
		ix, shardMan, err := PackManifest(man, "packed", 512<<20)
		if err != nil {
			t.Error(err)
			return
		}
		packedDev, _ := storage.NewDevice(env, spec)
		packed := storage.NewModeledBackend(shardMan, packedDev)
		start = env.Now()
		for _, shard := range ix.Shards() {
			size, _ := packed.Size(shard)
			it, err := NewShardIterator(packed, shard, size, 4<<20)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				e, _ := ix.Lookup(samples[i].Name)
				if e.Shard != shard {
					continue
				}
				ok, err := it.NextModeled(e.Length)
				if err != nil || !ok {
					t.Errorf("NextModeled: %v %v", ok, err)
					return
				}
			}
		}
		packedTime = env.Now() - start
		packedReads = packedDev.Stats().Reads
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if packedReads*10 > rawReads {
		t.Fatalf("packed issued %d device reads vs raw %d, want ≫ fewer", packedReads, rawReads)
	}
	if packedTime*2 > rawTime {
		t.Fatalf("packed %v not clearly faster than raw %v", packedTime, rawTime)
	}
}
