package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// Real-filesystem behaviour of DirBackend that the simulator never
// produces: every test runs through a real temporary directory, and every
// test that can runs both bodies — the one this platform builds and the
// package-os one, forced through its test hook.

// dirBodies opens dir once per body and pooling mode; the pool is a debug
// pool the caller audits.
func dirBodies(t *testing.T, dir string, visit func(t *testing.T, b *DirBackend, pool *mempool.Pool)) {
	t.Helper()
	for _, portable := range []bool{false, true} {
		for _, pooled := range []bool{true, false} {
			t.Run(fmt.Sprintf("portable=%v/pooled=%v", portable, pooled), func(t *testing.T) {
				b := openDir(t, dir)
				b.portable = portable
				pool := mempool.New(mempool.Config{Debug: true})
				if pooled {
					b.SetBufferPool(pool)
				}
				visit(t, b, pool)
				if n := pool.Outstanding(); n != 0 {
					t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
				}
			})
		}
	}
}

func seeded(n int, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i*7) + byte(i>>8)
	}
	return buf
}

// TestDirBytesMatchReadFile: reads return exactly what os.ReadFile sees,
// for sizes around the class and page boundaries (and empty), from either
// body, pooled or not.
func TestDirBytesMatchReadFile(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{0, 1, 4095, 4096, 4097, 300_000}
	for i, n := range sizes {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%d", i)), seeded(n, byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirBodies(t, dir, func(t *testing.T, b *DirBackend, _ *mempool.Pool) {
		for i, n := range sizes {
			name := fmt.Sprintf("f%d", i)
			want, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			d, err := readFile(b, name)
			if err != nil || d.Size != int64(n) || !bytes.Equal(d.Bytes, want) {
				t.Fatalf("%s whole: %d bytes, %v; want %d identical bytes", name, d.Size, err, n)
			}
			d.Release()
		}
	})
}

// fillers run fill — the read half both bodies share — over path with a
// size the test chooses, one filler per kind of open file. A size that
// disagrees with the file is exactly the state a file truncated or
// replaced between the size and the read leaves behind, reproduced here
// without racing a writer. dir_linux_test.go adds the raw descriptor.
var fillers = map[string]func(path string, pool *mempool.Pool, size int64) ([]byte, *mempool.Ref, error){
	"os.File": func(path string, pool *mempool.Pool, size int64) ([]byte, *mempool.Ref, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return fill(f, pool, path, size)
	},
}

// TestDirFileChangedUnderRead: a file that shrank after it was sized is a
// short-read error with the lease released; one that grew is served at the
// size taken, never beyond it.
func TestDirFileChangedUnderRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	content := seeded(4096, 3)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, fillWith := range fillers {
		for _, pooled := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pooled=%v", name, pooled), func(t *testing.T) {
				audit := mempool.New(mempool.Config{Debug: true})
				var pool *mempool.Pool
				if pooled {
					pool = audit
				}
				// Sized at 8192, then truncated to 4096.
				buf, ref, err := fillWith(path, pool, 8192)
				if !errors.Is(err, io.ErrUnexpectedEOF) || buf != nil || ref != nil {
					t.Fatalf("shrunk file: %d bytes, ref %v, err %v; want a short-read error and nothing else", len(buf), ref, err)
				}
				// Sized at 1024, then replaced by 4096 bytes.
				buf, ref, err = fillWith(path, pool, 1024)
				if err != nil || !bytes.Equal(buf, content[:1024]) {
					t.Fatalf("grown file: %d bytes, %v; want the first 1024", len(buf), err)
				}
				if ref != nil {
					ref.Release()
				}
				if n := audit.Outstanding(); n != 0 {
					t.Fatalf("%d pooled refs outstanding: %v", n, audit.Leaks())
				}
			})
		}
	}
}

// hostileNames builds a tree and returns the names that must not exist as
// samples although something answers to most of them.
func hostileNames(t *testing.T, dir string) []string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "f"), seeded(4096, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	return []string{
		"ghost",                                 // missing
		"sub",                                   // a directory
		"sub/",                                  // the same, spelled as one
		"f/inside",                              // a path through a regular file
		"f\x00",                                 // NUL: C strings end there
		"gh\x00st",                              //
		strings.Repeat("x", 300),                // past NAME_MAX, and past the stack buffer
		strings.Repeat("sub/../", 60) + "ghost", // long, valid, missing
	}
}

// TestDirHostileNames: names a socket client can send that are not samples
// are NotExistError from Read — typed, so the
// resilient layer neither retries them nor counts them against the breaker
// — with no panic and no lease left behind. A long name that does exist is
// still served (the stack buffer is an optimisation, not a limit).
func TestDirHostileNames(t *testing.T) {
	dir := t.TempDir()
	names := hostileNames(t, dir)
	long := strings.Repeat("sub/../", 60) + "f"
	dirBodies(t, dir, func(t *testing.T, b *DirBackend, _ *mempool.Pool) {
		var ne *NotExistError
		for _, name := range names {
			if d, err := readFile(b, name); !errors.As(err, &ne) {
				t.Errorf("whole %q = %d bytes, %v; want NotExistError", name, d.Size, err)
			}
		}
		d, err := readFile(b, long)
		if err != nil || !bytes.Equal(d.Bytes, seeded(4096, 1)) {
			t.Fatalf("%d-byte name of an existing file: %v", len(long), err)
		}
		d.Release()
	})
}

// TestDirCloseThenRead: after Close a read fails with
// ErrDirClosed — it does not address whatever file reused the root's or a
// pinned file's descriptor number — and Close under concurrent readers lets
// each read finish whole or refuses it; none sees foreign bytes. The pinned
// mode is the leaf given its manifest, whose readers are all on the pinned
// descriptor when Close closes it.
func TestDirCloseThenRead(t *testing.T) {
	dir := t.TempDir()
	content := seeded(4096, 9)
	if err := os.WriteFile(filepath.Join(dir, "f"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"raw", "pinned", "portable"} {
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		b.portable = mode == "portable"
		if mode == "pinned" {
			pinManifest(t, b)
		}
		pool := mempool.New(mempool.Config{Debug: true})
		b.SetBufferPool(pool)
		var wg sync.WaitGroup
		started := make(chan struct{}, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					d, err := readFile(b, "f")
					if i == 0 {
						started <- struct{}{}
					}
					if err != nil {
						if !errors.Is(err, ErrDirClosed) {
							t.Errorf("read racing Close: %v", err)
						}
						return
					}
					if !bytes.Equal(d.Bytes, content) {
						t.Errorf("read racing Close returned foreign bytes")
					}
					d.Release()
				}
			}()
		}
		for g := 0; g < 8; g++ {
			<-started
		}
		if want := mode == "pinned" && RawDirLeaf; (pinnedCount(b) == 1) != want {
			t.Errorf("%s: %d descriptors pinned under the readers", mode, pinnedCount(b))
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// The descriptor numbers are free again: occupy them with other files.
		var others [2]*os.File
		for i := range others {
			if others[i], err = os.Open(os.DevNull); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := readFile(b, "f"); !errors.Is(err, ErrDirClosed) {
			t.Errorf("%s: Read after Close = %v, want ErrDirClosed", mode, err)
		}
		if n := pinnedCount(b); n != 0 {
			t.Errorf("%s: %d descriptors still pinned after Close", mode, n)
		}
		for _, f := range others {
			f.Close()
		}
		if err := b.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
		}
	}
}

func TestNewDirBackendMissingRoot(t *testing.T) {
	if _, err := NewDirBackend(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("NewDirBackend of a missing directory succeeded")
	}
}
