package prisma

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// readWithin reads name through r and fails the test if the read errs or
// takes longer than d. A read waiting on a copy nobody will produce never
// returns by itself; the instance's Close, in the test cleanup, wakes it.
func readWithin(t *testing.T, r interface{ Read(string) ([]byte, error) }, name string, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := r.Read(name)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read of %s: %v", name, err)
		}
	case <-time.After(d):
		t.Fatalf("read of %s still waiting after %v", name, d)
	}
}

// requireDelivered fails the test unless every listed epoch is done with
// each of its entries delivered and none dropped.
func requireDelivered(t *testing.T, epochs []EpochStatus, ids ...EpochID) {
	t.Helper()
	byID := make(map[EpochID]EpochStatus, len(epochs))
	for _, e := range epochs {
		byID[e.ID] = e
	}
	for _, id := range ids {
		e, ok := byID[id]
		if !ok || e.State != "done" || e.Delivered != int64(e.Total) || e.Dropped != 0 {
			t.Fatalf("epoch %d: %+v (known %v), want done with every entry delivered", id, e, ok)
		}
	}
}

// TestRepeatedNamesParkEveryCopy submits plans that name a file twice, lets
// the producers park every entry, then reads the plan in order: each entry
// is its own copy in the buffer, so no read waits, and the epoch ends done
// with every entry delivered — with the default options and with a
// consumer deadline alike.
func TestRepeatedNamesParkEveryCopy(t *testing.T) {
	dir := makeDataset(t, 4)
	for _, tc := range []struct {
		name string
		plan []int
	}{{"aba", []int{0, 1, 0}}, {"aa", []int{0, 0}}} {
		for _, deadline := range []time.Duration{0, 2 * time.Second} {
			t.Run(fmt.Sprintf("%s/deadline=%v", tc.name, deadline), func(t *testing.T) {
				p := open(t, dir, func(o *Options) { o.ConsumerDeadline = deadline })
				files := p.ShuffledFileList(1, 0)
				plan := make([]string, len(tc.plan))
				for i, j := range tc.plan {
					plan[i] = files[j]
				}
				id, _, err := p.SubmitEpoch(plan)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(200 * time.Millisecond) // every entry parked
				for _, name := range plan {
					readWithin(t, p, name, time.Second)
				}
				requireDelivered(t, p.Epochs(), id)
			})
		}
	}
}

// TestSubmitAheadDeliversEveryEpoch submits each epoch's plan one or two
// epochs before it is read — epoch N+depth as soon as epoch N starts — and
// reads six epochs with two strided consumers, two producers and a buffer
// of 256: the producers park the next epoch's copy of a sample while this
// epoch's copy still waits for its consumer, and both must be delivered.
func TestSubmitAheadDeliversEveryEpoch(t *testing.T) {
	const files, epochs, consumers = 1024, 6, 2
	dir := makeDataset(t, files)
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			p := open(t, dir, func(o *Options) {
				o.InitialProducers = 2
				o.InitialBuffer = 256
				o.DisableAutoTune = true
				o.ConsumerDeadline = 2 * time.Second
			})
			ids := make([]EpochID, 0, epochs)
			for e := 0; e < epochs; e++ {
				for len(ids) < epochs && len(ids) <= e+depth {
					id, _, err := p.SubmitEpoch(p.ShuffledFileList(7, len(ids)))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				}
				plan := p.ShuffledFileList(7, e)
				var wg sync.WaitGroup
				errs := make(chan error, consumers)
				for c := 0; c < consumers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := c; i < len(plan); i += consumers {
							if _, err := p.Read(plan[i]); err != nil {
								errs <- fmt.Errorf("epoch %d, consumer %d, entry %d: %w", e, c, i, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
			requireDelivered(t, p.Epochs(), ids...)
		})
	}
}

// TestOverlappingSocketPlans has two socket clients submit plans that share
// half their names, lets the producers park both, and reads each plan
// through its own client at once: a name's two entries are two parked
// copies, whichever client claims which, and both epochs end done.
func TestOverlappingSocketPlans(t *testing.T) {
	dir := makeDataset(t, 12)
	p := open(t, dir, func(o *Options) {
		o.InitialBuffer = 64
		o.DisableAutoTune = true
		o.ConsumerDeadline = 2 * time.Second
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	files := p.ShuffledFileList(5, 0)
	plans := [][]string{files[:8], files[4:]}
	clients := make([]*Client, len(plans))
	ids := make([]EpochID, len(plans))
	for i, plan := range plans {
		c, err := Dial(sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if ids[i], _, err = c.SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	time.Sleep(200 * time.Millisecond) // both plans parked
	var wg sync.WaitGroup
	errs := make(chan error, len(plans))
	for i, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range plan {
				if _, err := clients[i].Read(name); err != nil {
					errs <- fmt.Errorf("client %d, %s: %w", i, name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireDelivered(t, p.Epochs(), ids...)
}

// TestUnlistedNameRefusedAtStage reads a file created after Open, so absent
// from the manifest, without a plan: the stage refuses it with the leaf's
// NotExistError before any storage layer sees it — no recorder entry, no
// slow read by the memory hierarchy — while a listed name reads through
// every layer as before.
func TestUnlistedNameRefusedAtStage(t *testing.T) {
	dir := makeDataset(t, 4)
	tracePath := filepath.Join(t.TempDir(), "io.trace")
	p, err := Open(Options{Dir: dir, TraceFile: tracePath, Tiering: TieringOptions{Enable: true, CapacityBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const late = "train/late.jpg"
	if err := os.WriteFile(filepath.Join(dir, late), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	var ne *storage.NotExistError
	if _, err := p.Read(late); !errors.As(err, &ne) || ne.Name != late {
		t.Fatalf("unplanned read of a file created after Open = %v, want NotExistError", err)
	}
	if st := p.Stats(); st.TierSlowReads != 0 || st.Errors != 1 {
		t.Fatalf("after the refused read: %d slow reads, %d errors; want 0 and 1", st.TierSlowReads, st.Errors)
	}
	listed := p.ShuffledFileList(1, 0)[0]
	if _, err := p.Read(listed); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.TierSlowReads != 1 {
		t.Fatalf("a listed read made %d slow reads, want 1", st.TierSlowReads)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 1 || strings.Contains(string(raw), late) {
		t.Fatalf("recorder saw %d reads, want only the listed one: %s", n, raw)
	}
}

// TestSimStageRefusesUnlistedNames: a stage built under the sim clock, as
// every simulation builds one, refuses a plan naming a file its manifest
// does not list, and an unplanned read of one, with the errors Open's stage
// gives for the same names.
func TestSimStageRefusesUnlistedNames(t *testing.T) {
	dir := makeDataset(t, 4)
	manifest, err := dataset.FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ghost = "train/ghost.jpg"
	plan := []string{manifest.Sample(0).Name, ghost}
	p := open(t, dir, nil)
	_, _, openPlanErr := p.SubmitEpoch(plan)
	_, openReadErr := p.Read(ghost)
	if openPlanErr == nil || openReadErr == nil {
		t.Fatalf("Open's stage: plan %v, read %v; want both refused", openPlanErr, openReadErr)
	}

	s := sim.New()
	env := conc.NewSimEnv(s)
	var simPlanErr, simReadErr error
	var epochs []core.EpochStatus
	s.Spawn("driver", func(*sim.Process) {
		dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1e9, Channels: 1})
		if err != nil {
			t.Error(err)
			return
		}
		backend := storage.NewModeledBackend(manifest, dev)
		st, err := core.NewStage(env, backend, manifest, core.DefaultStageConfig())
		if err != nil {
			t.Error(err)
			return
		}
		st.Start()
		defer st.Close()
		_, simPlanErr = st.SubmitEpoch(plan)
		_, _, simReadErr = st.Read(core.ReadRequest{Name: ghost})
		epochs = st.Epochs()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if simPlanErr == nil || simPlanErr.Error() != openPlanErr.Error() || len(epochs) != 0 {
		t.Fatalf("sim stage's plan: %v with %d epochs issued; want %q and none", simPlanErr, len(epochs), openPlanErr)
	}
	var ne *storage.NotExistError
	if !errors.As(simReadErr, &ne) || simReadErr.Error() != openReadErr.Error() {
		t.Fatalf("sim stage's unplanned read: %v; want %q", simReadErr, openReadErr)
	}
}
