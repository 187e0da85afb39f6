// Multi-tenant scenario: two DL jobs — one aggressive (8 reader threads),
// one modest (2) — compete for one shared storage device, the §II problem
// framework-intrinsic optimizations cannot see. The control plane's
// fairness arbiter (a §VII policy) measures each job's rate and enforces a
// weighted max-min split through per-job token buckets, restoring the
// modest job's share. Runs in the deterministic virtual-time simulator.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/fairness"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

const (
	deviceLatency = 500 * time.Microsecond // 4 channels → 8 k reads/s total
	window        = 3 * time.Second
)

func main() {
	fmt.Println("Two jobs share one device (8,000 reads/s capacity).")
	fmt.Println()
	uncontrolled := run(false)
	controlled := run(true)

	report := func(title string, counts [2]int64) {
		total := counts[0] + counts[1]
		fmt.Printf("%-22s job A (8 threads): %6d reads (%4.1f%%)   job B (2 threads): %6d reads (%4.1f%%)\n",
			title,
			counts[0], 100*float64(counts[0])/float64(total),
			counts[1], 100*float64(counts[1])/float64(total))
	}
	report("without coordination:", uncontrolled)
	report("with fair arbiter:", controlled)
	fmt.Println()
	fmt.Println("Coordinated, system-wide control is exactly what decoupling enables:")
	fmt.Println("no single job could have enforced this split from inside its framework.")
}

// run simulates both jobs for the window and returns their read counts.
func run(arbitrate bool) [2]int64 {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var counts [2]int64

	s.Spawn("driver", func(*sim.Process) {
		dev, err := storage.NewDevice(env, storage.DeviceSpec{
			BaseLatency: deviceLatency, BytesPerSecond: 1e12, Channels: 4,
		})
		if err != nil {
			log.Fatal(err)
		}

		var arb *fairness.Arbiter
		if arbitrate {
			arb, err = fairness.NewArbiter(env, 8000)
			if err != nil {
				log.Fatal(err)
			}
			arb.Start(100 * time.Millisecond)
		}

		launch := func(idx int, id string, threads int) *metrics.Counter {
			samples := make([]dataset.Sample, 512)
			for i := range samples {
				samples[i] = dataset.Sample{Name: fmt.Sprintf("%s/%04d", id, i), Size: 50_000}
			}
			backend := storage.NewModeledBackend(dataset.MustNew(samples), dev)
			count := metrics.NewCounter(env)
			read := func(name string) error { _, err := backend.Read(storage.Request{Name: name}); return err }
			if arbitrate {
				bucket, err := fairness.NewTokenBucket(env, 8000, 1)
				if err != nil {
					log.Fatal(err)
				}
				if err := arb.Register(id, 1, bucket, count.Value); err != nil {
					log.Fatal(err)
				}
				unthrottled := read
				read = func(name string) error { bucket.Acquire(1); return unthrottled(name) }
			}
			for w := 0; w < threads; w++ {
				env.Go(fmt.Sprintf("%s-w%d", id, w), func() {
					for env.Now() < window {
						if err := read(samples[int(count.Value())%len(samples)].Name); err != nil {
							return
						}
						count.Inc()
					}
				})
			}
			return count
		}

		cA := launch(0, "jobA", 8)
		cB := launch(1, "jobB", 2)
		env.Sleep(window + 100*time.Millisecond)
		if arb != nil {
			arb.Stop()
		}
		counts[0], counts[1] = cA.Value(), cB.Value()
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return counts
}
