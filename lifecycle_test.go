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

// TestOpenFailureTearsDown: an Open that fails after every layer is up —
// the tenant registrations are the last thing it does, and the only late
// step options validation lets a caller break — leaves no goroutine and no
// descriptor (the dataset root is the first thing Open opens) behind.
func TestOpenFailureTearsDown(t *testing.T) {
	dir := makeDataset(t, 8)
	warmDescriptors(t, dir)
	for name, tenants := range map[string][]TenantSpec{
		"duplicate tenant": {{Name: "job-a"}, {Name: "job-a"}},
		"negative weight":  {{Name: "job-a"}, {Name: "job-b", Weight: -1}},
		"reserved name":    {{Name: "default"}},
	} {
		t.Run(name, func(t *testing.T) {
			base, fds := runtime.NumGoroutine(), openFDs()
			opts := Options{Dir: dir}
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
		})
	}
}
