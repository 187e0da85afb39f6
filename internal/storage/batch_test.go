package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// conformContent is the shared fixture payload for the range-conformance
// suite: 1000 distinct-ish bytes so slicing errors show up as mismatches.
func conformContent() []byte {
	buf := make([]byte, 1000)
	for i := range buf {
		buf[i] = byte(i*7 + i>>4)
	}
	return buf
}

// conformRange runs the shared one-range / vectored conformance assertions
// against one backend holding conformContent under name "f". hasBytes is
// false for the modeled backend (sizes only).
func conformRange(t *testing.T, label string, b Backend, hasBytes bool) {
	t.Helper()
	content := conformContent()
	check := func(what string, d Data, off, n int64) {
		t.Helper()
		if d.Size != n {
			t.Fatalf("%s: %s: size %d, want %d", label, what, d.Size, n)
		}
		if hasBytes && n > 0 && !bytes.Equal(d.Bytes, content[off:off+n]) {
			t.Fatalf("%s: %s: payload mismatch", label, what)
		}
	}

	d, err := readRange(b, "f", 0, 1000)
	if err != nil {
		t.Fatalf("%s: full range: %v", label, err)
	}
	check("full range", d, 0, 1000)
	d.Release()

	// Truncated at EOF.
	d, err = readRange(b, "f", 800, 1000)
	if err != nil {
		t.Fatalf("%s: truncated range: %v", label, err)
	}
	check("truncated range", d, 800, 200)
	d.Release()

	// Past EOF: empty, not an error.
	d, err = readRange(b, "f", 2000, 5)
	if err != nil || d.Size != 0 {
		t.Fatalf("%s: past-EOF range = %+v, %v; want empty, nil", label, d, err)
	}
	d.Release()

	if _, err := readRange(b, "f", -1, 10); err == nil {
		t.Fatalf("%s: negative offset accepted", label)
	}
	if _, err := readRange(b, "f", 0, -1); err == nil {
		t.Fatalf("%s: negative length accepted", label)
	}
	if _, err := readRange(b, "ghost", 0, 10); err == nil {
		t.Fatalf("%s: missing name accepted", label)
	}

	// Vectored read: per-range semantics must match a one-range request
	// exactly, including the clamps, and the results append after the caller's
	// scratch prefix.
	scratch := []Data{{Name: "sentinel"}}
	ranges := []Range{{Off: 0, N: 100}, {Off: 500, N: 250}, {Off: 900, N: 500}, {Off: 1500, N: 10}}
	res, err := readBatch(b, "f", ranges, scratch)
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	if len(res) != 5 || res[0].Name != "sentinel" {
		t.Fatalf("%s: batch returned %d results (prefix %q), want 5 with sentinel prefix", label, len(res), res[0].Name)
	}
	wantSizes := []int64{100, 250, 100, 0}
	for i, want := range wantSizes {
		check("batch segment", res[i+1], ranges[i].Off, want)
	}
	for _, d := range res[1:] {
		d.Release()
	}

	// A negative range fails the whole batch and returns out at its
	// original length with no views appended.
	res, err = readBatch(b, "f", []Range{{Off: 0, N: 10}, {Off: 5, N: -1}}, scratch[:1])
	if err == nil {
		t.Fatalf("%s: negative batch range accepted", label)
	}
	if len(res) != 1 {
		t.Fatalf("%s: failed batch returned %d results, want the original 1", label, len(res))
	}
	if _, err := readBatch(b, "ghost", []Range{{Off: 0, N: 10}}, nil); err == nil {
		t.Fatalf("%s: batch on missing name accepted", label)
	}
}

// TestRangeConformance runs the shared range/batch contract over every
// backend implementing it — the suite that keeps the Mem/Dir/Modeled
// semantics (clamp at EOF, empty past EOF, fail on negatives) identical,
// so chain wrappers can rely on one behavior.
func TestRangeConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		mem := NewMemBackend()
		mem.Add("f", conformContent())
		pool := mempool.New(mempool.Config{Debug: true})
		mem.SetBufferPool(pool)
		conformRange(t, "mem", mem, true)
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("mem: %d pooled refs leaked", n)
		}
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f"), conformContent(), 0o644); err != nil {
			t.Fatal(err)
		}
		b := openDir(t, dir)
		pool := mempool.New(mempool.Config{Debug: true})
		b.SetBufferPool(pool)
		conformRange(t, "dir", b, true)
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("dir: %d pooled refs leaked", n)
		}
	})
	t.Run("modeled", func(t *testing.T) {
		runSim(t, func(env conc.Env) {
			dev, err := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 4})
			if err != nil {
				t.Fatal(err)
			}
			man := dataset.MustNew([]dataset.Sample{{Name: "f", Size: 1000}})
			conformRange(t, "modeled", NewModeledBackend(man, dev), false)
		})
	})
}

// TestModeledBatchChargesOneRequest proves the economics the coalescer is
// built on: a K-range vectored read against a modeled device pays the base
// latency once plus the total transfer, where K separate ReadRange calls
// pay the base latency K times.
func TestModeledBatchChargesOneRequest(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, err := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		man := dataset.MustNew([]dataset.Sample{{Name: "f", Size: 4000}})
		b := NewModeledBackend(man, dev)

		start := env.Now()
		res, err := readBatch(b, "f", []Range{{0, 1000}, {1000, 1000}, {2000, 1000}, {3000, 1000}}, nil)
		if err != nil || len(res) != 4 {
			t.Fatalf("batch = %d results, %v", len(res), err)
		}
		// 1ms base + 4000B / 1MBps = 1ms + 4ms, charged once.
		if got := env.Now() - start; got != 5*time.Millisecond {
			t.Fatalf("vectored read took %v, want 5ms (one request)", got)
		}
		if dev.Stats().Reads != 1 {
			t.Fatalf("device reads = %d, want 1", dev.Stats().Reads)
		}

		start = env.Now()
		for off := int64(0); off < 4000; off += 1000 {
			if _, err := readRange(b, "f", off, 1000); err != nil {
				t.Fatal(err)
			}
		}
		// Per-sample pays the base latency per request: 4 x (1ms + 1ms).
		if got := env.Now() - start; got != 8*time.Millisecond {
			t.Fatalf("per-sample reads took %v, want 8ms (four requests)", got)
		}
	})
}
