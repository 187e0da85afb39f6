//go:build linux && (amd64 || arm64)

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

func init() {
	fillers["descriptor"] = func(path string, pool *mempool.Pool, size int64) ([]byte, *mempool.Ref, error) {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			return nil, nil, err
		}
		defer syscall.Close(fd)
		return fill(rawFile(fd), pool, path, size)
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

// mixedReads issues 10 000 reads of names from 8 goroutines and checks each
// against want: content for the names that must read, failure for every
// other.
func mixedReads(t *testing.T, b *DirBackend, names []string, want map[string]string) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1250; i++ {
				name := names[(i+g)%len(names)]
				content, good := want[name]
				d, err := readFile(b, name)
				if good != (err == nil) || (good && string(d.Bytes) != content) {
					t.Errorf("%q: %d bytes, %v", name, d.Size, err)
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestDirNoDescriptorLeak: 10 000 reads from 8 goroutines — good ones mixed
// with every failing kind — through a leaf given its
// manifest pin exactly the manifest files that read well, leave no lease,
// and once Close has run the process holds the descriptors it held before
// the leaf was opened.
func TestDirNoDescriptorLeak(t *testing.T) {
	root, escaping, beneath := symlinkTree(t)
	names := append(hostileNames(t, root), escaping...)
	names = append(names, beneath...)
	names = append(names, "f", "train/x.jpg")
	want := map[string]string{"f": string(seeded(4096, 1)), "train/x.jpg": "inside"}
	for _, name := range beneath {
		want[name] = "inside"
	}
	before := openFDs(t)
	b := openDir(t, root)
	pinManifest(t, b)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	mixedReads(t, b, names, want)
	pinnable := 0
	for name := range want {
		if _, ok := b.names.Index(name); ok {
			pinnable++
		}
	}
	if got := pinnedCount(b); got != pinnable {
		t.Errorf("%d descriptors pinned, want one per manifest file read (%d)", got, pinnable)
	}
	b.Close()
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after 10 000 mixed reads and Close, %d before the leaf", after, before)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// TestDirUnlistedNamesPinNothing: 10 000 reads from 8 goroutines of names a
// socket client can send — hostile ones, escaping links, and aliases of
// manifest files ("./f", "sub/../f") that do read — pin nothing, so no
// descriptor outlives its read.
func TestDirUnlistedNamesPinNothing(t *testing.T) {
	root, escaping, _ := symlinkTree(t)
	names := append(hostileNames(t, root), escaping...)
	names = append(names, "dirlink", "./f", "sub/../f", "train//x.jpg", "./train/../inside")
	f := string(seeded(4096, 1))
	want := map[string]string{"./f": f, "sub/../f": f, "train//x.jpg": "inside", "./train/../inside": "inside"}
	b := openDir(t, root)
	pinManifest(t, b)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	before := openFDs(t)
	mixedReads(t, b, names, want)
	if n := pinnedCount(b); n != 0 {
		t.Errorf("%d descriptors pinned by names the manifest does not list", n)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after 10 000 unlisted reads, %d before", after, before)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// TestDirDescriptorExhaustion: with RLIMIT_NOFILE lowered until openat
// returns EMFILE, a file the leaf has not pinned fails with a device error
// — the resilient layer retries it, unlike a missing file — while a pinned
// one, which needs no new descriptor, keeps reading and sizing. No lease is
// left behind, reads work again once descriptors do, and after Close the
// process holds the descriptors it held before the leaf was opened.
func TestDirDescriptorExhaustion(t *testing.T) {
	dir := t.TempDir()
	content := seeded(4096, 5)
	for _, name := range []string{"pinned", "unpinned"} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := openFDs(t)
	b := openDir(t, dir)
	pinManifest(t, b)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	cfg := DefaultResilienceConfig()
	cfg.BaseBackoff = time.Microsecond
	cfg.BreakerThreshold = 0
	rb, err := NewResilientBackend(conc.NewReal(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := readFile(rb, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	warm := rb.ResilienceStats()

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	starved := lim
	starved.Cur = 0 // every descriptor number is now past the limit
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &starved); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	pinnedWhole, pinnedWholeErr := readFile(rb, "pinned")
	pinnedSize, pinnedSizeErr := b.Size("pinned")
	_, unpinnedErr := readFile(rb, "unpinned")
	stats := rb.ResilienceStats()
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatalf("restoring RLIMIT_NOFILE: %v", err)
	}

	if pinnedWholeErr != nil || !bytes.Equal(pinnedWhole.Bytes, content) {
		t.Errorf("pinned whole read with no descriptors left: %v", pinnedWholeErr)
	}
	pinnedWhole.Release()
	if pinnedSizeErr != nil || pinnedSize != int64(len(content)) {
		t.Errorf("Size of the pinned file with no descriptors left = %d, %v", pinnedSize, pinnedSizeErr)
	}
	var ne *NotExistError
	if !errors.Is(unpinnedErr, syscall.EMFILE) || errors.As(unpinnedErr, &ne) {
		t.Errorf("unpinned read with no descriptors left: %v, want an EMFILE device error", unpinnedErr)
	}
	// The pinned read took one attempt; the unpinned one retried.
	if want := int64(1 + cfg.MaxAttempts); stats.Attempts-warm.Attempts != want || stats.Retries-warm.Retries != want-2 {
		t.Errorf("resilience stats %+v (before %+v): want %d attempts, every unpinned one retried", stats, warm, want)
	}
	d, err = readFile(rb, "unpinned")
	if err != nil || !bytes.Equal(d.Bytes, content) {
		t.Fatalf("read after descriptors came back: %v", err)
	}
	d.Release()
	b.Close()
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after Close, %d before the leaf", after, before)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// readSyscalls is this process's count of read-class syscalls (syscr in
// /proc/self/io, which the benchmark counts too), taken with one raw read.
func readSyscalls(t *testing.T) int64 {
	t.Helper()
	fd, err := syscall.Open("/proc/self/io", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	defer syscall.Close(fd)
	var buf [1024]byte
	n, err := syscall.Read(fd, buf[:])
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(buf[:n]), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			count, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return count
		}
	}
	t.Skip("no syscr in /proc/self/io")
	return 0
}

// writeFiles writes count files name%03d under dir, file i seeded(size+i, i),
// and returns their names.
func writeFiles(t *testing.T, dir string, count, size int) []string {
	t.Helper()
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		if err := os.WriteFile(filepath.Join(dir, names[i]), seeded(size+i, byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// TestDirPinnedReadIsOnePreadv: from the second pass over a manifest's
// files on, a pooled whole-file read is exactly one read-class syscall —
// the preadv; no open, fstat or close — and no heap object.
func TestDirPinnedReadIsOnePreadv(t *testing.T) {
	dir := t.TempDir()
	names := writeFiles(t, dir, 32, 4096)
	b := openDir(t, dir)
	pinManifest(t, b)
	b.SetBufferPool(mempool.New(mempool.Config{}))
	read := func(i int) {
		d, err := readFile(b, names[i])
		if err != nil || !bytes.Equal(d.Bytes, seeded(4096+i, byte(i))) {
			t.Fatalf("%s: %d bytes, %v", names[i], d.Size, err)
		}
		d.Release()
	}
	for i := range names {
		read(i)
	}
	if n := pinnedCount(b); n != len(names) {
		t.Fatalf("%d of %d files pinned after one pass", n, len(names))
	}
	c0 := readSyscalls(t)
	self := readSyscalls(t) - c0
	for pass := 2; pass <= 3; pass++ {
		before := readSyscalls(t)
		for i := range names {
			read(i)
		}
		if got := readSyscalls(t) - before - self; got != int64(len(names)) {
			t.Errorf("pass %d: %d read-class syscalls for %d pinned reads, want one each", pass, got, len(names))
		}
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		d, err := readFile(b, names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
		i++
	}); allocs != 0 {
		t.Errorf("%v allocations per pinned read, want 0", allocs)
	}
}

// TestDirSlotHintNeverReadsAnotherFile: a request's manifest slot saves the
// leaf its lookup only when the manifest's name there is the request's
// name. Right, wrong, missing and out-of-range slots all read the named
// file — before and after it is pinned — and a hostile name carrying a
// listed file's slot is still refused as not existing.
func TestDirSlotHintNeverReadsAnotherFile(t *testing.T) {
	dir := t.TempDir()
	names := writeFiles(t, dir, 8, 1024)
	b := openDir(t, dir)
	pinManifest(t, b)
	slot := func(i int) int {
		j, ok := b.names.Index(names[i])
		if !ok {
			t.Fatalf("%s not in the manifest", names[i])
		}
		return j + 1
	}
	for pass := 0; pass < 2; pass++ { // the first pass opens and pins, the second reads pinned
		for i := range names {
			other := (i + 1) % len(names)
			for _, hint := range []int{slot(i), slot(other), 0, -3, len(names) + 5} {
				resp, err := b.Read(Request{Name: names[i], Slot: hint})
				if err != nil || !bytes.Equal(resp.Data.Bytes, seeded(1024+i, byte(i))) {
					t.Fatalf("pass %d: %s with slot %d: %d bytes, %v", pass, names[i], hint, resp.Data.Size, err)
				}
			}
		}
	}
	var ne *NotExistError
	if _, err := b.Read(Request{Name: "../" + names[0], Slot: slot(0)}); !errors.As(err, &ne) {
		t.Fatalf("hostile name with a listed file's slot: %v, want NotExistError", err)
	}
}

// TestDirPinnedFileChangedInPlace: a pinned file that grows or shrinks in
// place between reads is served at the kernel's size at read time — by Read
// and by Size — pooled or not, with no lease left behind; so is one
// that returns to the size it was pinned at.
func TestDirPinnedFileChangedInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	content := seeded(8192, 4)
	for _, pooled := range []bool{true, false} {
		if err := os.WriteFile(path, content[:4096], 0o644); err != nil {
			t.Fatal(err)
		}
		b := openDir(t, dir)
		pinManifest(t, b)
		pool := mempool.New(mempool.Config{Debug: true})
		if pooled {
			b.SetBufferPool(pool)
		}
		check := func(what string, want []byte) {
			t.Helper()
			d, err := readFile(b, "f")
			if err != nil || !bytes.Equal(d.Bytes, want) {
				t.Fatalf("pooled=%v %s whole: %d bytes, %v; want %d", pooled, what, d.Size, err, len(want))
			}
			d.Release()
			if n, err := b.Size("f"); err != nil || n != int64(len(want)) {
				t.Fatalf("pooled=%v %s Size = %d, %v; want %d", pooled, what, n, err, len(want))
			}
		}
		check("as pinned", content[:4096])
		if n := pinnedCount(b); n != 1 {
			t.Fatalf("%d files pinned, want 1", n)
		}
		for _, step := range []struct {
			what string
			size int
		}{{"grown", 8192}, {"shrunk", 1000}, {"empty", 0}, {"back to its pinned size", 4096}} {
			// WriteFile truncates and rewrites the same inode.
			if err := os.WriteFile(path, content[:step.size], 0o644); err != nil {
				t.Fatal(err)
			}
			check(step.what, content[:step.size])
		}
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
		}
	}
}

// TestDirPinnedSurvivesRename: a file renamed over or deleted after its
// first read is still served — by Read and by Size — from the inode
// that read pinned, until Close; a file first read after the rename is the
// new one; and a leaf without a manifest sees every change at once.
func TestDirPinnedSurvivesRename(t *testing.T) {
	dir := t.TempDir()
	old, replacement := seeded(4096, 6), seeded(3000, 7)
	for _, name := range []string{"read-before", "read-after"} {
		if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := openDir(t, dir)
	pinManifest(t, b)
	pool := mempool.New(mempool.Config{Debug: true})
	b.SetBufferPool(pool)
	unpinned := openDir(t, dir)
	check := func(b *DirBackend, name string, want []byte) {
		t.Helper()
		d, err := readFile(b, name)
		if err != nil || !bytes.Equal(d.Bytes, want) {
			t.Fatalf("%s: %d bytes, %v; want %d", name, d.Size, err, len(want))
		}
		d.Release()
		if n, err := b.Size(name); err != nil || n != int64(len(want)) {
			t.Fatalf("Size(%s) = %d, %v; want %d", name, n, err, len(want))
		}
	}
	check(b, "read-before", old)
	for _, name := range []string{"read-before", "read-after"} {
		tmp := filepath.Join(dir, name+".tmp")
		if err := os.WriteFile(tmp, replacement, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	check(b, "read-before", old)
	check(b, "read-after", replacement)
	check(unpinned, "read-before", replacement)
	if err := os.Remove(filepath.Join(dir, "read-before")); err != nil {
		t.Fatal(err)
	}
	check(b, "read-before", old)
	var ne *NotExistError
	if _, err := readFile(unpinned, "read-before"); !errors.As(err, &ne) {
		t.Fatalf("deleted file through a leaf without a manifest: %v, want NotExistError", err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs outstanding: %v", n, pool.Leaks())
	}
}

// highestFD is the highest descriptor number this process has open.
func highestFD(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	high := 0
	for _, e := range ents {
		if fd, err := strconv.Atoi(e.Name()); err == nil {
			high = max(high, fd)
		}
	}
	return high
}

// TestDirPinBudgetIsProcessWide: three leaves over one dataset larger than
// half a lowered RLIMIT_NOFILE, read concurrently, together pin no more
// than that half — a budget per leaf would have pinned three times it and
// run the process out of descriptors — and every read succeeds, pinned or
// not. Close returns every pinned descriptor.
func TestDirPinBudgetIsProcessWide(t *testing.T) {
	dir := t.TempDir()
	names := writeFiles(t, dir, 300, 512)
	before := openFDs(t)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	// Room for what is open now, three roots and the reads in flight — but
	// not for the dataset, nor for three leaves' worth of half the limit.
	low := lim
	low.Cur = uint64(highestFD(t) + 1 + 100)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Errorf("restoring RLIMIT_NOFILE: %v", err)
		}
	})
	pinnedBefore := pinsHeld.Load()
	var leaves [3]*DirBackend
	for i := range leaves {
		leaves[i] = openDir(t, dir)
		pinManifest(t, leaves[i])
		leaves[i].SetBufferPool(mempool.New(mempool.Config{}))
	}
	budget := pinBudget.Load()
	if budget != int64(low.Cur/2) || int64(len(names)) <= budget {
		t.Fatalf("budget %d under a limit of %d for %d files", budget, low.Cur, len(names))
	}
	var wg sync.WaitGroup
	for _, b := range leaves {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(b *DirBackend, g int) {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					for i := range names {
						i := (i + g*len(names)/2) % len(names)
						d, err := readFile(b, names[i])
						if err != nil || !bytes.Equal(d.Bytes, seeded(512+i, byte(i))) {
							t.Errorf("%s: %d bytes, %v", names[i], d.Size, err)
						}
						d.Release()
					}
				}
			}(b, g)
		}
	}
	wg.Wait()
	total := 0
	for _, b := range leaves {
		total += pinnedCount(b)
	}
	if total == 0 || int64(total) > budget || pinsHeld.Load()-pinnedBefore != int64(total) {
		t.Errorf("%d descriptors pinned by three leaves (process-wide count %d), budget %d", total, pinsHeld.Load()-pinnedBefore, budget)
	}
	for _, b := range leaves {
		b.Close()
	}
	if got := pinsHeld.Load(); got != pinnedBefore {
		t.Errorf("%d descriptors counted pinned after Close, %d before", got, pinnedBefore)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after Close, %d before the leaves", after, before)
	}
}
