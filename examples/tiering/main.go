// Tiering scenario (§VII "implementing other optimizations"): a dataset
// lives on a slow NFS-like share; a local NVMe fast tier promotes files on
// first access. The tiering optimization object composes with the
// parallel prefetcher in one PRISMA stage — epoch 1 pays the share (hidden
// behind prefetching), epoch 2 runs at local-flash speed. Runs in the
// deterministic virtual-time simulator.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

const files = 2000

func main() {
	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("driver", func(*sim.Process) {
		man, err := dataset.Synthetic("train", files, 113_000, 0.5, 1)
		if err != nil {
			log.Fatal(err)
		}

		// Slow tier: a contended NFS share. Fast tier: local NVMe.
		nfsDev, err := storage.NewDevice(env, storage.NFSShare())
		if err != nil {
			log.Fatal(err)
		}
		nvmeDev, err := storage.NewDevice(env, storage.DeviceSpec{
			Name: "local-nvme", BaseLatency: 80 * time.Microsecond, BytesPerSecond: 3e9, Channels: 8,
		})
		if err != nil {
			log.Fatal(err)
		}
		share := storage.NewModeledBackend(man, nfsDev)
		tiered := &chain.Chain{Env: env, Backend: share}
		err = tiered.Fold(chain.Config{Hierarchy: tiering.Config{FastCapacity: 1 << 30, PromoteAfter: 1}, Fast: nvmeDev})
		if err != nil {
			log.Fatal(err)
		}
		defer tiered.Close()

		// PRISMA prefetches through the tiered chain.
		pf, err := core.NewPrefetcher(env, tiered.Backend, man, core.PrefetcherConfig{
			InitialProducers: 4, MaxProducers: 16,
			InitialBufferCapacity: 64, MaxBufferCapacity: 512,
		})
		if err != nil {
			log.Fatal(err)
		}
		stage := core.NewStage(env, tiered.Backend, pf)
		stage.SetChainStats(tiered.Snapshot)
		pf.Start()
		defer stage.Close()

		fmt.Printf("%d files on an NFS share, 1 GiB local NVMe fast tier\n\n", files)
		for epoch := 0; epoch < 3; epoch++ {
			plan := man.EpochFileList(7, epoch)
			if err := stage.SubmitPlan(plan); err != nil {
				log.Fatal(err)
			}
			start := env.Now()
			for _, name := range plan {
				if _, _, err := stage.Read(core.ReadRequest{Name: name}); err != nil {
					log.Fatal(err)
				}
			}
			st := stage.Stats().Tiering
			fmt.Printf("epoch %d: %8v   fast-tier hits %4d / %d reads (%.0f%% resident)\n",
				epoch, (env.Now() - start).Round(time.Millisecond),
				st.FastHits, st.FastHits+st.SlowReads,
				100*float64(st.FastHits)/float64(st.FastHits+st.SlowReads))
		}
		fmt.Println("\nThe tiering object and the prefetcher are independent building")
		fmt.Println("blocks composed in one stage — no framework code knows either exists.")
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
}
