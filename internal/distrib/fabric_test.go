package distrib

import (
	"errors"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// fabricFixture is the two-node in-sim fabric the unit tests drive.
// t.Fatal cannot be used from sim process goroutines, so construction
// reports errors via t.Errorf and returns nil.
type fabricFixture struct {
	man     *dataset.Manifest
	dev     *storage.Device
	ring    *Ring
	stages  [2]*core.Stage
	fabrics [2]*Fabric
}

func newFabricFixture(t *testing.T, env conc.Env, files int) *fabricFixture {
	fx := &fabricFixture{}
	man, err := dataset.Synthetic("train", files, 4096, 0.5, 3)
	if err != nil {
		t.Errorf("dataset: %v", err)
		return nil
	}
	fx.man = man
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		Name: "pfs", BaseLatency: 100 * time.Microsecond, BytesPerSecond: 1e9, Channels: 4,
	})
	if err != nil {
		t.Errorf("device: %v", err)
		return nil
	}
	fx.dev = dev
	shared := storage.NewModeledBackend(man, dev)
	names := []string{"node-0", "node-1"}
	if fx.ring, err = NewRing(names, 0); err != nil {
		t.Errorf("ring: %v", err)
		return nil
	}
	for n := 0; n < 2; n++ {
		fx.stages[n], err = core.NewStage(env, shared, man, core.StageConfig{
			InitialProducers: 2, MaxProducers: 8,
			InitialBufferCapacity: 32, MaxBufferCapacity: 256,
			TakeDeadline:    2 * time.Second,
			PlanPartitioner: fx.ring.Partitioner(names[n]),
		})
		if err != nil {
			t.Errorf("stage: %v", err)
			return nil
		}
		fx.stages[n].Start()
		fx.fabrics[n], err = NewFabric(env, FabricConfig{
			Node: names[n], Ring: fx.ring, Stage: fx.stages[n], Slow: shared,
		})
		if err != nil {
			t.Errorf("fabric: %v", err)
			return nil
		}
	}
	fx.fabrics[0].SetPeer("node-1", LocalPeer(fx.fabrics[1]))
	fx.fabrics[1].SetPeer("node-0", LocalPeer(fx.fabrics[0]))
	return fx
}

func (fx *fabricFixture) close() {
	fx.stages[0].Close()
	fx.stages[1].Close()
}

// A single worker sweeping the full epoch through one node's fabric: owned
// samples come from the local buffer, non-owned ones are forwarded to the
// peer's buffer, and the slow store serves every sample exactly once.
func TestFabricRoutesByOwnership(t *testing.T) {
	const files = 200
	s := sim.New()
	env := conc.NewSimEnv(s)
	var done bool
	s.Spawn("driver", func(*sim.Process) {
		fx := newFabricFixture(t, env, files)
		if fx == nil {
			return
		}
		defer fx.close()
		full := fx.man.EpochFileList(9, 0)
		owned0 := len(fx.ring.Partitioner("node-0")(full))
		if owned0 == 0 || owned0 == len(full) {
			t.Errorf("degenerate split: node-0 owns %d of %d", owned0, len(full))
			return
		}
		for n := 0; n < 2; n++ {
			if err := fx.stages[n].SubmitPlan(full); err != nil {
				t.Errorf("submit node %d: %v", n, err)
				return
			}
		}
		for _, name := range full {
			if _, _, err := fx.fabrics[0].Read(core.ReadRequest{Name: name}); err != nil {
				t.Errorf("read %q: %v", name, err)
				return
			}
		}
		st0, st1 := fx.fabrics[0].Stats(), fx.fabrics[1].Stats()
		if st0.LocalReads != int64(owned0) {
			t.Errorf("node-0 local reads = %d, want %d", st0.LocalReads, owned0)
		}
		if want := int64(len(full) - owned0); st0.PeerReads != want {
			t.Errorf("node-0 peer reads = %d, want %d", st0.PeerReads, want)
		}
		if st1.PeerServes != st0.PeerReads {
			t.Errorf("node-1 peer serves = %d, want %d", st1.PeerServes, st0.PeerReads)
		}
		if st0.Failovers != 0 || st0.PeerErrors != 0 {
			t.Errorf("unexpected failovers=%d peerErrors=%d", st0.Failovers, st0.PeerErrors)
		}
		if st0.PeerWait <= 0 {
			t.Errorf("peer wait = %v, want > 0", st0.PeerWait)
		}
		if reads := fx.dev.Stats().Reads; reads != int64(len(full)) {
			t.Errorf("slow-store reads = %d, want %d (zero duplicates)", reads, len(full))
		}
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !done && !t.Failed() {
		t.Fatal("driver did not finish")
	}
}

// downPeer is a peer transport whose node is unreachable.
type downPeer struct{}

func (downPeer) PeerRead(string) (storage.Data, error) {
	return storage.Data{}, errors.New("peer unreachable")
}

// With the peer transport failing, reads of peer-owned samples fail over to
// the slow store and still succeed.
func TestFabricFailoverToSlowStore(t *testing.T) {
	const files = 120
	s := sim.New()
	env := conc.NewSimEnv(s)
	var done bool
	s.Spawn("driver", func(*sim.Process) {
		fx := newFabricFixture(t, env, files)
		if fx == nil {
			return
		}
		defer fx.close()
		full := fx.man.EpochFileList(5, 0)
		// Only node-0 gets a plan; node-1 is down from the start: its
		// transport fails every forwarded read.
		fx.fabrics[0].SetPeer("node-1", downPeer{})
		if err := fx.stages[0].SubmitPlan(full); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		for _, name := range full {
			if _, _, err := fx.fabrics[0].Read(core.ReadRequest{Name: name}); err != nil {
				t.Errorf("read %q: %v", name, err)
				return
			}
		}
		st0 := fx.fabrics[0].Stats()
		notOwned := int64(len(full)) - int64(len(fx.ring.Partitioner("node-0")(full)))
		if st0.Failovers != notOwned {
			t.Errorf("failovers = %d, want %d", st0.Failovers, notOwned)
		}
		if st0.PeerReads != 0 || st0.PeerErrors != notOwned {
			t.Errorf("peer reads = %d, errors = %d; want 0, %d (peer down)", st0.PeerReads, st0.PeerErrors, notOwned)
		}
		if st0.MaxFailoverLatency <= 0 {
			t.Errorf("max failover latency = %v, want > 0", st0.MaxFailoverLatency)
		}
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !done && !t.Failed() {
		t.Fatal("driver did not finish")
	}
}

// Fabric construction rejects incomplete configurations.
func TestFabricConfigValidation(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	ring, err := NewRing([]string{"a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []FabricConfig{
		{},                      // everything missing
		{Node: "a"},             // no ring
		{Node: "a", Ring: ring}, // no stage
	}
	for i, cfg := range cases {
		if _, err := NewFabric(env, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
