package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// runSim executes body as a simulated process and fails the test on error.
func runSim(t *testing.T, body func(env conc.Env)) {
	t.Helper()
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("test-body", func(*sim.Process) { body(env) })
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDeviceSpecValidate(t *testing.T) {
	good := P4600()
	if err := good.Validate(); err != nil {
		t.Fatalf("P4600 invalid: %v", err)
	}
	bad := []DeviceSpec{
		{BaseLatency: -1, BytesPerSecond: 1, Channels: 1},
		{BytesPerSecond: 0, Channels: 1},
		{BytesPerSecond: 1, Channels: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestServiceTime(t *testing.T) {
	spec := DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 1}
	if got := spec.ServiceTime(0); got != time.Millisecond {
		t.Fatalf("ServiceTime(0) = %v, want 1ms", got)
	}
	// 1 MB at 1 MB/s = 1s transfer.
	if got := spec.ServiceTime(1e6); got != time.Second+time.Millisecond {
		t.Fatalf("ServiceTime(1MB) = %v, want 1.001s", got)
	}
	if got := spec.ServiceTime(-5); got != time.Millisecond {
		t.Fatalf("negative size not clamped: %v", got)
	}
}

func TestDeviceSingleRead(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, err := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		d := dev.Read(1000) // 1ms base + 1ms transfer
		if d != 2*time.Millisecond {
			t.Errorf("Read latency = %v, want 2ms", d)
		}
		if env.Now()-start != 2*time.Millisecond {
			t.Errorf("clock advanced %v, want 2ms", env.Now()-start)
		}
		st := dev.Stats()
		if st.Reads != 1 || st.Bytes != 1000 || st.QueueTime != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestDeviceSerializesBeyondChannels(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var makespan time.Duration
	s.Spawn("driver", func(*sim.Process) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e12, Channels: 2})
		wg := env.NewWaitGroup()
		wg.Add(6)
		for i := 0; i < 6; i++ {
			env.Go(fmt.Sprintf("r%d", i), func() {
				defer wg.Done()
				dev.Read(0)
			})
		}
		wg.Wait()
		makespan = env.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 6 requests of 1ms each over 2 channels = 3ms makespan.
	if makespan != 3*time.Millisecond {
		t.Fatalf("makespan = %v, want 3ms", makespan)
	}
}

func TestDeviceQueueTimeAccounting(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var st DeviceStats
	s.Spawn("driver", func(*sim.Process) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e12, Channels: 1})
		wg := env.NewWaitGroup()
		wg.Add(2)
		for i := 0; i < 2; i++ {
			env.Go("r", func() {
				defer wg.Done()
				dev.Read(0)
			})
		}
		wg.Wait()
		st = dev.Stats()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.BusyTime != 2*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 2ms", st.BusyTime)
	}
	if st.QueueTime != time.Millisecond {
		t.Fatalf("QueueTime = %v, want 1ms (second request waits out the first)", st.QueueTime)
	}
}

// Property: with c channels and n equal requests, makespan = ceil(n/c) * svc.
func TestDeviceMakespanProperty(t *testing.T) {
	prop := func(nRaw, cRaw uint8) bool {
		n := int(nRaw)%20 + 1
		c := int(cRaw)%4 + 1
		s := sim.New()
		env := conc.NewSimEnv(s)
		ok := true
		s.Spawn("driver", func(*sim.Process) {
			dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e12, Channels: c})
			wg := env.NewWaitGroup()
			wg.Add(n)
			for i := 0; i < n; i++ {
				env.Go("r", func() {
					defer wg.Done()
					dev.Read(0)
				})
			}
			wg.Wait()
			want := time.Duration((n+c-1)/c) * time.Millisecond
			if env.Now() != want {
				ok = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func manifest3() *dataset.Manifest {
	return dataset.MustNew([]dataset.Sample{
		{Name: "a", Size: 1000},
		{Name: "b", Size: 2000},
		{Name: "c", Size: 3000},
	})
}

func TestModeledBackendReadsTakeModeledTime(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 1})
		b := NewModeledBackend(manifest3(), dev)
		start := env.Now()
		d, err := readFile(b, "b")
		if err != nil {
			t.Fatal(err)
		}
		if d.Size != 2000 || d.Bytes != nil {
			t.Errorf("Data = %+v, want size 2000, nil bytes", d)
		}
		if got := env.Now() - start; got != 3*time.Millisecond { // 1ms + 2000B/1MBps
			t.Errorf("elapsed %v, want 3ms", got)
		}
	})
}

func TestModeledBackendMissingFile(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		b := NewModeledBackend(manifest3(), dev)
		_, err := readFile(b, "nope")
		var ne *NotExistError
		if !errors.As(err, &ne) || ne.Name != "nope" {
			t.Errorf("err = %v, want NotExistError{nope}", err)
		}
		if _, err := b.Size("nope"); err == nil {
			t.Error("Size of missing file succeeded")
		}
	})
}

func TestModeledBackendSizeIsFree(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		b := NewModeledBackend(manifest3(), dev)
		start := env.Now()
		n, err := b.Size("c")
		if err != nil || n != 3000 {
			t.Fatalf("Size = %d, %v", n, err)
		}
		if env.Now() != start {
			t.Error("Size consumed simulated time")
		}
	})
}

// TestModeledBackendRereadPaysDevice: nothing is cached, so a second read
// of the same file pays the device again.
func TestModeledBackendRereadPaysDevice(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 1})
		b := NewModeledBackend(manifest3(), dev)
		for i := 0; i < 2; i++ {
			start := env.Now()
			if _, err := readFile(b, "a"); err != nil {
				t.Fatal(err)
			}
			if got := env.Now() - start; got != 2*time.Millisecond { // 1ms + 1000B/1MBps
				t.Errorf("read %d took %v, want 2ms", i, got)
			}
		}
		if s := dev.Stats(); s.Reads != 2 || s.Bytes != 2000 {
			t.Errorf("device stats = %+v, want 2 reads of 2000 bytes", s)
		}
	})
}

// TestReaderCountConcurrentReads: two readers over a two-channel device,
// the second starting 1ms into the first's 2ms read. The count is one for
// 2ms, two for the 1ms of overlap, and zero once both return; the second
// reader's sleep before its read is not counted.
func TestReaderCountConcurrentReads(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e6, Channels: 2})
		rc := NewReaderCount(env, NewModeledBackend(manifest3(), dev))
		wg := env.NewWaitGroup()
		wg.Add(2)
		read := func(delay time.Duration) func() {
			return func() {
				defer wg.Done()
				env.Sleep(delay)
				if _, err := readFile(rc, "a"); err != nil {
					t.Error(err)
				}
			}
		}
		env.Go("first", read(0))
		env.Go("second", read(time.Millisecond))
		wg.Wait()
		env.Sleep(time.Millisecond)
		want := map[int]time.Duration{0: time.Millisecond, 1: 2 * time.Millisecond, 2: time.Millisecond}
		got := rc.Distribution()
		for v, d := range want {
			if got[v] != d {
				t.Errorf("%d readers for %v, want %v", v, got[v], d)
			}
		}
		for v, d := range got {
			if d != want[v] {
				t.Errorf("%d readers for %v, want %v", v, d, want[v])
			}
		}
	})
}

// TestReaderCountFailedRead: an error passes through unchanged and the
// reader is released; Size reaches the inner backend.
func TestReaderCountFailedRead(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		rc := NewReaderCount(env, NewModeledBackend(manifest3(), dev))
		_, err := readFile(rc, "nope")
		var ne *NotExistError
		if !errors.As(err, &ne) || ne.Name != "nope" {
			t.Fatalf("err = %v, want NotExistError(nope)", err)
		}
		if n, err := rc.Size("c"); err != nil || n != 3000 {
			t.Fatalf("Size = %d, %v; want 3000", n, err)
		}
		env.Sleep(time.Millisecond)
		for v, d := range rc.Distribution() {
			if v != 0 && d != 0 {
				t.Errorf("%d readers for %v after a failed read, want only 0", v, d)
			}
		}
	})
}

func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "train")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	content := []byte("hello prisma")
	if err := os.WriteFile(filepath.Join(sub, "x.jpg"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	b := openDir(t, dir)
	d, err := readFile(b, "train/x.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Bytes) != string(content) || d.Size != int64(len(content)) {
		t.Fatalf("Data = %+v", d)
	}
	n, err := b.Size("train/x.jpg")
	if err != nil || n != int64(len(content)) {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestDirBackendMissing(t *testing.T) {
	b := openDir(t, t.TempDir())
	_, err := readFile(b, "ghost")
	var ne *NotExistError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want NotExistError", err)
	}
	if _, err := b.Size("ghost"); !errors.As(err, &ne) {
		t.Fatalf("Size err = %v, want NotExistError", err)
	}
}

// TestDirBackendNamesStayUnderRoot: names come from the socket, so every
// entry point must refuse one that would resolve outside the dataset root
// — with the same typed error as any other unknown file.
func TestDirBackendNamesStayUnderRoot(t *testing.T) {
	outer := t.TempDir()
	root := filepath.Join(outer, "data")
	if err := os.MkdirAll(filepath.Join(root, "train"), 0o755); err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(outer, "secret.txt")
	for path, content := range map[string]string{secret: "outside", filepath.Join(root, "train", "x.jpg"): "inside"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, pooled := range []bool{false, true} {
		b := openDir(t, root)
		if pooled {
			b.SetBufferPool(mempool.New(mempool.Config{}))
		}
		for _, name := range []string{"../secret.txt", "train/../../secret.txt", "train/../..", secret, "/etc/hostname", ""} {
			var ne *NotExistError
			if d, err := readFile(b, name); !errors.As(err, &ne) {
				t.Errorf("pooled=%v ReadFile(%q) = %q, %v; want NotExistError", pooled, name, d.Bytes, err)
			}
			if n, err := b.Size(name); !errors.As(err, &ne) {
				t.Errorf("pooled=%v Size(%q) = %d, %v; want NotExistError", pooled, name, n, err)
			}
		}
		// Dot-dot that stays inside the root is an ordinary name.
		d, err := readFile(b, "train/../train/x.jpg")
		if err != nil || string(d.Bytes) != "inside" {
			t.Errorf("pooled=%v in-root name: %q, %v", pooled, d.Bytes, err)
		}
		d.Release()
	}
}

func TestFaultyBackendFailEvery(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		f := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
		f.FailEvery(2)
		var fails int
		for i := 0; i < 6; i++ {
			if _, err := readFile(f, "a"); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("unexpected error type: %v", err)
				}
				fails++
			}
		}
		if fails != 3 || f.Injected() != 3 {
			t.Errorf("fails = %d injected = %d, want 3/3", fails, f.Injected())
		}
	})
}

func TestFaultyBackendFailName(t *testing.T) {
	runSim(t, func(env conc.Env) {
		dev, _ := NewDevice(env, P4600())
		f := NewFaultyBackend(env, NewModeledBackend(manifest3(), dev))
		f.FailName("b")
		if _, err := readFile(f, "a"); err != nil {
			t.Fatalf("healthy read failed: %v", err)
		}
		if _, err := readFile(f, "b"); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed read err = %v, want ErrInjected", err)
		}
	})
}

func TestPresetSpecsSane(t *testing.T) {
	for _, spec := range []DeviceSpec{P4600(), SATAHDD(), NFSShare()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	// The SSD should service a typical ImageNet file far faster than the HDD.
	ssd := P4600().ServiceTime(113_000)
	hdd := SATAHDD().ServiceTime(113_000)
	if ssd*10 > hdd {
		t.Errorf("SSD (%v) not clearly faster than HDD (%v)", ssd, hdd)
	}
}
