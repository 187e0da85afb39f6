package prisma

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// everyLayer turns on every layer Open can bring up, with loops fast enough
// that their goroutines notice a stop within the test's patience.
func everyLayer(o *Options) {
	o.ControlInterval = 5 * time.Millisecond
	o.Tenancy = TenancyOptions{Enable: true, SharedCacheBytes: 1 << 20, TickInterval: 5 * time.Millisecond}
	o.Tiering = TieringOptions{Enable: true, PrefetchNextEpoch: true}
	o.Cluster = ClusterOptions{Enable: true, NodeID: "solo"}
}

// awaitGoroutines waits for the goroutine count to come back down to base
// (stopped loops exit after their current sleep).
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openFDs counts this process's open descriptors (-1 where there is no
// /proc to ask). Callers compare two counts, so the descriptor the listing
// itself holds cancels out.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// warmDescriptors runs one full Open / ServeUnix / Close cycle, so what the
// process opens once and keeps (the network poller) is open before a test
// takes its baseline count.
func warmDescriptors(t *testing.T, dir string) {
	t.Helper()
	opts := Options{Dir: dir}
	everyLayer(&opts)
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ServeUnix(filepath.Join(shortTempDir(t), "warm.sock")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClosersStack: closers run newest first, exactly once, and report the
// first error.
func TestClosersStack(t *testing.T) {
	var c closers
	var order []string
	boom := errors.New("boom")
	c.push(func() error { order = append(order, "cache"); return errors.New("later error") })
	c.push(func() error { order = append(order, "stage"); return boom })
	c.push(func() error { order = append(order, "server"); return nil })
	if err := c.run(); err != boom {
		t.Fatalf("run = %v, want the first error met", err)
	}
	if err := c.run(); err != nil {
		t.Fatalf("second run = %v, want nil", err)
	}
	if want := []string{"server", "stage", "cache"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestCloseConcurrentAndRepeated: Close from many goroutines at once, and
// again afterwards, tears everything down once (run under -race: the guard
// used to be an unsynchronised bool).
func TestCloseConcurrentAndRepeated(t *testing.T) {
	dir := makeDataset(t, 16)
	warmDescriptors(t, dir)
	base, fds := runtime.NumGoroutine(), openFDs()
	opts := Options{Dir: dir}
	everyLayer(&opts)
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fds >= 0 && openFDs() <= fds {
		t.Fatalf("an open instance holds no descriptor (%d before, %d now): the dataset root should be one", fds, openFDs())
	}
	if err := p.ServeUnix(filepath.Join(shortTempDir(t), "prisma.sock")); err != nil {
		t.Fatal(err)
	}
	names := p.ShuffledFileList(1, 0)
	if err := p.SubmitPlan(names); err != nil { // starts the tier warmer too
		t.Fatal(err)
	}
	for _, n := range names[:8] {
		if _, err := p.Read(n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("Close after Close = %v", err)
	}
	// Producers caught mid-read by Close drop their leases on the way out.
	awaitGoroutines(t, base)
	if out := p.Stats().PoolOutstanding; out != 0 {
		t.Fatalf("%d pooled leases outstanding after Close", out)
	}
	// The dataset root, the listener and every connection are closed.
	if got := openFDs(); got != fds {
		t.Fatalf("%d descriptors open after Close, %d before Open", got, fds)
	}
}

// TestCloseWakesBlockedSocketReader: a socket client blocked in a planned
// take — its sample cannot arrive: the one-slot buffer holds the plan's
// first entry and the one producer is parked on the second — is woken by
// Close, which then returns. The server waits for its handlers, and only the
// stage's close wakes a planned take, so the stage must go down first.
func TestCloseWakesBlockedSocketReader(t *testing.T) {
	dir := makeDataset(t, 4)
	opts := Options{Dir: dir, DisableAutoTune: true, InitialProducers: 1, MaxProducers: 1,
		InitialBuffer: 1, MaxBuffer: 1, BufferShards: 1}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(shortTempDir(t), "blocked.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := p.ShuffledFileList(1, 0)
	if err := c.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(names[len(names)-1])
		read <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Stats().PlanClaims == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the socket read never claimed its plan entry: %+v", p.Stats())
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked after 3 s behind a socket reader waiting on its planned sample")
	}
	if err := <-read; err == nil {
		t.Fatal("the blocked read succeeded after Close")
	}
}

// TestOpenFailureTearsDown: an Open that fails part-way leaves no goroutine,
// no descriptor (the dataset root is the first thing Open opens) and no
// pooled lease behind — whether a row of the storage chain table fails (its
// build is swapped for one that first reads a sample through every layer
// below it, so the leaf has pinned a descriptor and the hierarchy holds a
// lease, then fails) or the tenant registrations do, the last thing Open does
// and the only late step options validation lets a caller break.
func TestOpenFailureTearsDown(t *testing.T) {
	dir := makeDataset(t, 8)
	warmDescriptors(t, dir)
	failOpen := func(t *testing.T, tenants []TenantSpec) {
		t.Helper()
		base, fds := runtime.NumGoroutine(), openFDs()
		opts := Options{Dir: dir, TraceFile: filepath.Join(t.TempDir(), "io.jsonl")}
		everyLayer(&opts)
		opts.Tenancy.Tenants = tenants
		if p, err := Open(opts); err == nil {
			p.Close()
			t.Fatal("Open succeeded")
		}
		awaitGoroutines(t, base)
		if got := openFDs(); got != fds {
			t.Fatalf("%d descriptors open after the failed Open, %d before", got, fds)
		}
	}
	opts := Options{TraceFile: os.DevNull}
	everyLayer(&opts)
	cfg := chainConfig(opts.withDefaults())
	for i, row := range chain.Layers {
		if !row.On(cfg) {
			// Open turns the pack view on only over a pack index it has
			// detected, and it detects none yet.
			if row.Name != "pack" {
				t.Fatalf("row %s: everyLayer leaves it off", row.Name)
			}
			continue
		}
		t.Run("row "+row.Name, func(t *testing.T) {
			defer func() { chain.Layers[i] = row }()
			var pool *mempool.Pool
			chain.Layers[i].Build = func(c *chain.Chain, _ chain.Config) (storage.Backend, error) {
				pool = c.Pool
				resp, err := c.Backend.Read(storage.Request{Name: "train/0000.jpg"})
				if err != nil {
					return nil, err
				}
				resp.Data.Release()
				return nil, errors.New("injected")
			}
			failOpen(t, nil)
			if pool == nil {
				t.Fatal("the failing row was never built")
			}
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled leases outstanding after the failed Open", n)
			}
		})
	}
	for name, tenants := range map[string][]TenantSpec{
		"duplicate tenant": {{Name: "job-a"}, {Name: "job-a"}},
		"negative weight":  {{Name: "job-a"}, {Name: "job-b", Weight: -1}},
		"reserved name":    {{Name: "default"}},
	} {
		t.Run(name, func(t *testing.T) {
			failOpen(t, tenants)
		})
	}
}
