//go:build linux && (amd64 || arm64)

package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

func init() {
	fillers["descriptor"] = func(path string, pool *mempool.Pool, ranges []Range, size int64) ([]byte, *mempool.Ref, error) {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			return nil, nil, err
		}
		defer syscall.Close(fd)
		return fill(rawFile(fd), pool, path, ranges, size)
	}
}

// symlinkTree lays out root/train/x.jpg ("inside"), a secret beside the
// root, and symlinks of every kind.
func symlinkTree(t *testing.T) (root string, escaping, beneath []string) {
	t.Helper()
	outer := t.TempDir()
	root = filepath.Join(outer, "data")
	if err := os.MkdirAll(filepath.Join(root, "train"), 0o755); err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(outer, "secret.txt")
	for path, content := range map[string]string{secret: "outside", filepath.Join(root, "train", "x.jpg"): "inside"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for link, target := range map[string]string{
		"escape-rel":      "../secret.txt",
		"escape-abs":      secret,
		"train/escape-up": "../../secret.txt",
		"escape-dir":      "..",
		"abs-but-inside":  filepath.Join(root, "train", "x.jpg"), // absolute targets are refused wherever they point
		"inside":          "train/x.jpg",
		"train/sibling":   "x.jpg",
		"dirlink":         "train",
		"train/up-down":   "../train/x.jpg",
	} {
		if err := os.Symlink(target, filepath.Join(root, filepath.FromSlash(link))); err != nil {
			t.Fatal(err)
		}
	}
	return root,
		[]string{"escape-rel", "escape-abs", "train/escape-up", "escape-dir/secret.txt", "abs-but-inside"},
		[]string{"inside", "train/sibling", "dirlink/x.jpg", "train/up-down"}
}

// TestDirSymlinksStayBeneathRoot: with openat2(RESOLVE_BENEATH) a symlink
// that resolves outside the root — relatively or absolutely — is
// NotExistError by the kernel's path walk, while symlinks that stay
// beneath it keep working. Without openat2 the backend still serves (the
// lexical check is all there is, as before).
func TestDirSymlinksStayBeneathRoot(t *testing.T) {
	root, escaping, beneath := symlinkTree(t)
	for _, pooled := range []bool{true, false} {
		b := openDir(t, root)
		pool := mempool.New(mempool.Config{Debug: true})
		if pooled {
			b.SetBufferPool(pool)
		}
		if !b.root.beneath {
			t.Log("openat2(RESOLVE_BENEATH) unavailable here: escape refusal not checked")
		}
		var ne *NotExistError
		for _, name := range escaping {
			if !b.root.beneath {
				break
			}
			if d, err := readFile(b, name); !errors.As(err, &ne) {
				t.Errorf("pooled=%v whole %q = %q, %v; want NotExistError", pooled, name, d.Bytes, err)
			}
			if d, err := readRange(b, name, 0, 4); !errors.As(err, &ne) {
				t.Errorf("pooled=%v ranged %q = %q, %v; want NotExistError", pooled, name, d.Bytes, err)
			}
			// Size answers as the read does: it must not report what an
			// escaping link points at.
			if n, err := b.Size(name); !errors.As(err, &ne) {
				t.Errorf("Size(%q) = %d, %v; want NotExistError", name, n, err)
			}
		}
		for _, name := range beneath {
			d, err := readFile(b, name)
			if err != nil || string(d.Bytes) != "inside" {
				t.Errorf("pooled=%v %q = %q, %v; want the file beneath the root", pooled, name, d.Bytes, err)
			}
			d.Release()
			if n, err := b.Size(name); err != nil || n != int64(len("inside")) {
				t.Errorf("Size(%q) = %d, %v; want the size of the file beneath the root", name, n, err)
			}
		}
		if n, err := b.Size("dirlink"); !errors.As(err, &ne) {
			t.Errorf("Size of a link to a directory = %d, %v; want NotExistError", n, err)
		}
		// The fallback body: plain openat behind the lexical check.
		b.root.beneath = false
		for _, name := range beneath {
			d, err := readFile(b, name)
			if err != nil || string(d.Bytes) != "inside" {
				t.Errorf("pooled=%v fallback %q = %q, %v", pooled, name, d.Bytes, err)
			}
			d.Release()
			if n, err := b.Size(name); err != nil || n != int64(len("inside")) {
				t.Errorf("fallback Size(%q) = %d, %v", name, n, err)
			}
		}
		if _, err := readFile(b, "../secret.txt"); !errors.As(err, &ne) {
			t.Errorf("pooled=%v fallback \"../secret.txt\": %v, want NotExistError", pooled, err)
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
		}
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestDirNoDescriptorLeak: 10 000 reads from 8 goroutines — good whole and
// ranged ones mixed with every failing kind — leave exactly the descriptors
// that were open before, and no lease.
func TestDirNoDescriptorLeak(t *testing.T) {
	root, escaping, beneath := symlinkTree(t)
	names := append(hostileNames(t, root), escaping...)
	names = append(names, beneath...)
	names = append(names, "f", "train/x.jpg")
	want := map[string]string{"f": string(seeded(4096, 1)), "train/x.jpg": "inside"}
	for _, name := range beneath {
		want[name] = "inside"
	}
	b := openDir(t, root)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	before := openFDs(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1250; i++ {
				name := names[(i+g)%len(names)]
				content, good := want[name]
				if i%2 == 0 {
					d, err := readFile(b, name)
					if good != (err == nil) || (good && string(d.Bytes) != content) {
						t.Errorf("whole %q: %d bytes, %v", name, d.Size, err)
					}
					d.Release()
					continue
				}
				views, err := readBatch(b, name, []Range{{Off: 1, N: 3}, {Off: 0, N: 1 << 20}}, nil)
				if good != (err == nil) || (good && (string(views[0].Bytes) != content[1:4] || string(views[1].Bytes) != content)) {
					t.Errorf("ranged %q: %d views, %v", name, len(views), err)
				}
				for j := range views {
					views[j].Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after 10 000 mixed reads, %d before", after, before)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// TestDirDescriptorExhaustion: with RLIMIT_NOFILE lowered until openat
// returns EMFILE, the failure is a device error — the resilient layer
// retries it, unlike a missing file — no lease or descriptor is left
// behind, and reads work again once descriptors do.
func TestDirDescriptorExhaustion(t *testing.T) {
	dir := t.TempDir()
	content := seeded(4096, 5)
	if err := os.WriteFile(filepath.Join(dir, "f"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	b := openDir(t, dir)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	cfg := DefaultResilienceConfig()
	cfg.BaseBackoff = time.Microsecond
	cfg.BreakerThreshold = 0
	rb, err := NewResilientBackend(conc.NewReal(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	starved := lim
	starved.Cur = 0 // every descriptor number is now past the limit
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &starved); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	_, wholeErr := readFile(rb, "f")
	_, rangedErr := readRange(rb, "f", 0, 16)
	stats := rb.ResilienceStats()
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatalf("restoring RLIMIT_NOFILE: %v", err)
	}

	var ne *NotExistError
	for class, err := range map[string]error{"whole": wholeErr, "ranged": rangedErr} {
		if !errors.Is(err, syscall.EMFILE) || errors.As(err, &ne) {
			t.Errorf("%s read with no descriptors left: %v, want an EMFILE device error", class, err)
		}
	}
	if want := int64(2 * cfg.MaxAttempts); stats.Attempts != want || stats.Retries != want-2 {
		t.Errorf("resilience stats %+v: want every attempt retried (%d attempts)", stats, want)
	}
	d, err := readFile(rb, "f")
	if err != nil || !bytes.Equal(d.Bytes, content) {
		t.Fatalf("read after descriptors came back: %v", err)
	}
	d.Release()
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open afterwards, %d before", after, before)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}
