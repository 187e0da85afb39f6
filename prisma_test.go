package prisma

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// makeDataset writes n small files under a temp dir and returns it.
func makeDataset(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	samples := make([]dataset.Sample, n)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("train/%04d.jpg", i), Size: int64(2048 + i)}
	}
	if err := dataset.Generate(dir, dataset.MustNew(samples), 99); err != nil {
		t.Fatal(err)
	}
	return dir
}

// testManifest lists names, each size bytes, as a dataset manifest.
func testManifest(names []string, size int64) *dataset.Manifest {
	samples := make([]dataset.Sample, len(names))
	for i, n := range names {
		samples[i] = dataset.Sample{Name: n, Size: size}
	}
	return dataset.MustNew(samples)
}

func open(t *testing.T, dir string, mutate func(*Options)) *Prisma {
	t.Helper()
	opts := Options{Dir: dir}
	if mutate != nil {
		mutate(&opts)
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty Dir accepted")
	}
	if _, err := Open(Options{Dir: t.TempDir()}); err == nil {
		t.Error("empty dataset accepted")
	}
	dir := makeDataset(t, 1)
	if _, err := Open(Options{Dir: dir, InitialProducers: 5, MaxProducers: 2}); err == nil {
		t.Error("bad producer bounds accepted")
	}
	if _, err := Open(Options{Dir: dir, InitialBuffer: 50, MaxBuffer: 4}); err == nil {
		t.Error("bad buffer bounds accepted")
	}
	if _, err := Open(Options{Dir: dir, ControlInterval: -time.Second}); err == nil {
		t.Error("negative control interval accepted")
	}
}

func TestOpenScansManifest(t *testing.T) {
	dir := makeDataset(t, 10)
	p := open(t, dir, nil)
	if p.Files() != 10 {
		t.Fatalf("Files = %d, want 10", p.Files())
	}
	if p.TotalBytes() == 0 {
		t.Fatal("TotalBytes = 0")
	}
}

func TestPlannedReadsComeFromBuffer(t *testing.T) {
	dir := makeDataset(t, 20)
	p := open(t, dir, nil)
	plan := p.ShuffledFileList(7, 0)
	if err := p.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range plan {
		data, err := p.Read(name)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		if len(data) < 2048 {
			t.Fatalf("Read(%s): %d bytes", name, len(data))
		}
	}
	st := p.Stats()
	if st.Hits != 20 || st.Bypasses != 0 {
		t.Fatalf("stats = %+v, want 20 hits", st)
	}
}

func TestReadBytesMatchDisk(t *testing.T) {
	dir := makeDataset(t, 3)
	p := open(t, dir, nil)
	plan := p.ShuffledFileList(1, 0)
	_ = p.SubmitPlan(plan)
	viaPrisma, err := p.Read(plan[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := readDisk(dir, plan[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaPrisma, raw) {
		t.Fatal("prefetched bytes differ from disk")
	}
}

func readDisk(dir, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, filepath.FromSlash(name)))
}

func TestUnplannedReadBypasses(t *testing.T) {
	dir := makeDataset(t, 5)
	p := open(t, dir, nil)
	if _, err := p.Read("train/0000.jpg"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Bypasses != 1 {
		t.Fatalf("Bypasses = %d, want 1", st.Bypasses)
	}
}

// TestSubmitPlanRejectsUnknownFiles: a plan naming a file that is not in
// the dataset is refused whole — in-process and over the socket alike, where
// plans reach the stage without passing Prisma.SubmitEpoch — and no epoch
// is registered for it.
func TestSubmitPlanRejectsUnknownFiles(t *testing.T) {
	dir := makeDataset(t, 2)
	p := open(t, dir, nil)
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, plan := range [][]string{{"ghost.jpg"}, {"train/0000.jpg", "../x"}, {"train/0001.jpg", "train/0000.jpg/"}} {
		if _, _, err := p.SubmitEpoch(plan); err == nil || !strings.Contains(err.Error(), "unknown file") {
			t.Errorf("in-process plan %q: err = %v, want an unknown-file error", plan, err)
		}
		if _, _, err := c.SubmitEpoch(plan); err == nil || !strings.Contains(err.Error(), "unknown file") {
			t.Errorf("socket plan %q: err = %v, want an unknown-file error", plan, err)
		}
	}
	if eps := p.Epochs(); len(eps) != 0 {
		t.Fatalf("rejected plans registered epochs: %+v", eps)
	}
	if _, n, err := c.SubmitEpoch(p.ShuffledFileList(1, 0)); err != nil || n != 2 {
		t.Fatalf("valid socket plan: %d enqueued, %v", n, err)
	}
}

func TestShuffledFileListDeterministic(t *testing.T) {
	dir := makeDataset(t, 30)
	p := open(t, dir, nil)
	a := p.ShuffledFileList(5, 2)
	b := p.ShuffledFileList(5, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (seed, epoch) gave different lists")
		}
	}
	c := p.ShuffledFileList(5, 3)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different epochs gave identical lists")
	}
}

func TestManualTuningWithoutAutotune(t *testing.T) {
	dir := makeDataset(t, 5)
	p := open(t, dir, func(o *Options) { o.DisableAutoTune = true })
	if err := p.Control("producers=3", "buffer=7"); err != nil {
		t.Fatal(err)
	}
	// Producer changes are applied asynchronously but the target is
	// immediate.
	if st := p.Stats(); st.Producers != 3 || st.BufferCapacity != 7 {
		t.Fatalf("stats = %+v, want t=3 N=7", st)
	}
}

func TestCloseIdempotent(t *testing.T) {
	dir := makeDataset(t, 2)
	p := open(t, dir, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Reads after close fail instead of hanging.
	plan := p.ShuffledFileList(1, 0)
	if err := p.SubmitPlan(plan); err == nil {
		t.Fatal("SubmitPlan after Close succeeded")
	}
}

// TestReadCannotLeaveDatasetRoot is the regression test for the traversal
// ROADMAP item 4 confirmed: an un-planned name bypasses the buffer and
// reaches the directory backend verbatim, from the facade and from any
// socket client alike, and must not resolve outside Options.Dir.
func TestReadCannotLeaveDatasetRoot(t *testing.T) {
	dir := makeDataset(t, 4)
	secret := filepath.Join(filepath.Dir(dir), "secret.txt")
	if err := os.WriteFile(secret, []byte("outside the dataset"), 0o600); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(secret) })
	p := open(t, dir, nil)
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hostile := []string{"../secret.txt", "train/../../secret.txt", secret}
	for _, name := range hostile {
		if b, err := p.Read(name); err == nil {
			t.Errorf("Prisma.Read(%q) returned %q", name, b)
		}
		if b, err := c.Read(name); err == nil {
			t.Errorf("Client.Read(%q) over the socket returned %q", name, b)
		}
	}
	// The refusals are per-read errors: the same connection still serves
	// the dataset.
	if b, err := c.Read("train/0000.jpg"); err != nil || len(b) != 2048 {
		t.Fatalf("in-root read after refusals: %d bytes, %v", len(b), err)
	}
}

func TestServeUnixRoundTrip(t *testing.T) {
	dir := makeDataset(t, 16)
	p := open(t, dir, nil)
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	if err := p.ServeUnix(sock); err == nil {
		t.Fatal("double ServeUnix accepted")
	}

	planner, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer planner.Close()
	if err := planner.Ping(); err != nil {
		t.Fatal(err)
	}
	plan := p.ShuffledFileList(3, 0)
	if err := planner.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}

	// Four "worker processes", one client each.
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := w; i < len(plan); i += workers {
				data, err := c.Read(plan[i])
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if len(data) < 2048 {
					errs <- fmt.Errorf("worker %d: short read %d", w, len(data))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := planner.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != int64(len(plan)) {
		t.Fatalf("remote Hits = %d, want %d", st.Hits, len(plan))
	}
	if err := planner.Control("producers=2"); err != nil {
		t.Fatal(err)
	}
	if err := planner.Control("buffer=64"); err != nil {
		t.Fatal(err)
	}
}

// TestServeUnixReadAhead drives socket read-ahead through the public
// surface only: two pooled clients stride an epoch, most samples arrive
// behind a reply that was asked for something else, the bytes are the
// files', and both views of the stats (local and over the socket) say so.
func TestServeUnixReadAhead(t *testing.T) {
	dir := makeDataset(t, 400)
	p := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers, o.InitialBuffer = 2, 64
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	clients := make([]*Client, workers)
	for i := range clients {
		c, err := Dial(sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnablePooledReads(BufferPoolOptions{})
		clients[i] = c
	}
	plan := p.ShuffledFileList(5, 0)
	if _, n, err := clients[0].SubmitEpoch(plan); err != nil || n != len(plan) {
		t.Fatalf("SubmitEpoch enqueued %d of %d: %v", n, len(plan), err)
	}
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			for i := w; i < len(plan); i += workers {
				s, err := c.ReadSample(plan[i])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want, err := readDisk(dir, plan[i])
				if err != nil || s.Name != plan[i] || !bytes.Equal(s.Bytes(), want) {
					t.Errorf("worker %d: %s: delivered bytes differ from the file (%v)", w, plan[i], err)
				}
				s.Release()
			}
		}(w, c)
	}
	wg.Wait()
	local := p.Stats()
	remote, err := clients[1].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if local.ReadAheadSamples < int64(len(plan))/2 || local.ReadAheadWasted != 0 {
		t.Fatalf("ReadAheadSamples = %d of %d reads, wasted %d", local.ReadAheadSamples, len(plan), local.ReadAheadWasted)
	}
	if remote.ReadAheadSamples != local.ReadAheadSamples {
		t.Fatalf("remote ReadAheadSamples = %d, local %d", remote.ReadAheadSamples, local.ReadAheadSamples)
	}
	if local.PlanDelivered != int64(len(plan)) || local.Hits != int64(len(plan)) || local.Bypasses != 0 || local.Errors != 0 {
		t.Fatalf("stats = %+v", local)
	}
}

func TestTraceFileWrittenOnClose(t *testing.T) {
	dir := makeDataset(t, 8)
	tracePath := filepath.Join(t.TempDir(), "io.trace")
	p, err := Open(Options{Dir: dir, TraceFile: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	plan := p.ShuffledFileList(3, 0)
	if err := p.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range plan {
		if _, err := p.Read(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(raw), "\n")
	if lines != 8 {
		t.Fatalf("trace has %d events, want 8 (one per backend read)", lines)
	}
	if !strings.Contains(string(raw), `"name":"train/`) {
		t.Fatalf("trace content unexpected: %s", raw[:min(200, len(raw))])
	}
}

// TestTraceFileSpansDeviceReads: the I/O trace is a span file of device
// reads. Over a hierarchy that holds the dataset (and warms each submitted
// plan from its manifest sizes), an epoch read twice reaches the device once
// per file, so the trace holds one device-read span per file, each the
// file's length.
func TestTraceFileSpansDeviceReads(t *testing.T) {
	const files = 8
	dir := makeDataset(t, files)
	tracePath := filepath.Join(t.TempDir(), "io.trace")
	p, err := Open(Options{Dir: dir, TraceFile: tracePath,
		Tiering: TieringOptions{Enable: true, CapacityBytes: 1 << 20, PrefetchNextEpoch: true}})
	if err != nil {
		t.Fatal(err)
	}
	plan := p.ShuffledFileList(5, 0)
	for pass := 0; pass < 2; pass++ {
		if err := p.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			if _, err := p.Read(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != files {
		t.Fatalf("trace holds %d spans, want %d: one per file, not one per read", len(spans), files)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		info, err := os.Stat(filepath.Join(dir, filepath.FromSlash(s.Name)))
		if err != nil || s.Stage != obs.StageDeviceRead || s.Size != info.Size() || s.Error != "" || seen[s.Name] {
			t.Fatalf("span %+v (stat %v): want one device-read per file, sized as the file", s, err)
		}
		seen[s.Name] = true
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestAdminHandler(t *testing.T) {
	dir := makeDataset(t, 4)
	p := open(t, dir, nil)
	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()

	plan := p.ShuffledFileList(1, 0)
	_ = p.SubmitPlan(plan)
	for _, n := range plan {
		if _, err := p.Read(n); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "prisma_buffer_hits_total 4") {
		t.Fatalf("metrics missing hit count:\n%s", body)
	}
	// Tuning over HTTP reaches the stage.
	post, err := http.Post(srv.URL+"/tuning?producers=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if got := p.Stats().Producers; got != 3 {
		t.Fatalf("producers = %d, want 3 via HTTP", got)
	}
}

func TestAutotuneAdjustsUnderLoad(t *testing.T) {
	dir := makeDataset(t, 400)
	p := open(t, dir, func(o *Options) { o.ControlInterval = 20 * time.Millisecond })
	for epoch := 0; epoch < 3; epoch++ {
		plan := p.ShuffledFileList(11, epoch)
		if err := p.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			if _, err := p.Read(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := p.Stats()
	if st.Hits != 1200 {
		t.Fatalf("Hits = %d, want 1200", st.Hits)
	}
	if st.Producers < 1 || st.Producers > 32 {
		t.Fatalf("Producers = %d out of policy bounds", st.Producers)
	}
}
