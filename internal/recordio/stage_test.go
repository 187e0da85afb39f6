package recordio_test

// The prefetcher over packed shards. It lives outside package recordio
// because core imports the memory hierarchy, which imports this package.

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/recordio"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

func TestPrismaPrefetchesFromPackedShards(t *testing.T) {
	// The composition claim: the unchanged PRISMA prefetcher runs over an
	// IndexedBackend, serving planned samples from the buffer while the
	// producers issue ranged shard reads.
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("driver", func(*sim.Process) {
		samples := make([]dataset.Sample, 40)
		names := make([]string, 40)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d", i), Size: 100_000}
			names[i] = samples[i].Name
		}
		man := dataset.MustNew(samples)
		ix, shardMan, err := recordio.PackManifest(man, "packed", 1<<30)
		if err != nil {
			t.Error(err)
			return
		}
		dev, _ := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: time.Millisecond, BytesPerSecond: 1.4e9, Channels: 4})
		packed := recordio.NewIndexedBackend(ix, storage.NewModeledBackend(shardMan, dev))
		pf, err := core.NewPrefetcher(env, packed, man, core.PrefetcherConfig{
			InitialProducers: 4, MaxProducers: 8, InitialBufferCapacity: 16, MaxBufferCapacity: 64,
		})
		if err != nil {
			t.Error(err)
			return
		}
		st := core.NewStage(env, packed, pf)
		pf.Start()
		defer st.Close()
		if err := st.SubmitPlan(names); err != nil {
			t.Error(err)
			return
		}
		for _, n := range names {
			d, _, err := st.Read(core.ReadRequest{Name: n})
			if err != nil || d.Size != 100_000 {
				t.Errorf("Read(%s) = %+v, %v", n, d, err)
				return
			}
		}
		if st.Stats().Hits != 40 {
			t.Errorf("hits = %d, want 40", st.Stats().Hits)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
