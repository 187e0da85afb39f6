package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestPrefetcherDeliveryProperty drives the full stage with randomized
// shapes — file counts, producer counts, buffer capacities, consumer
// pacing, epoch counts, mid-run retuning, pooling on/off, plans that name
// a file more than once, and epochs submitted up to two ahead of the one
// being read — and checks the core invariant: every planned sample is
// delivered exactly once per plan entry, in consumption order, with no
// losses, duplicates, or leaks (buffer items and, when pooling is on,
// buffer-pool leases alike).
func TestPrefetcherDeliveryProperty(t *testing.T) {
	prop := func(seed int64, filesRaw, producersRaw, bufRaw, epochsRaw, aheadRaw uint8, usePool, repeat bool) bool {
		nFiles := int(filesRaw)%50 + 1
		producers := int(producersRaw)%6 + 1
		bufCap := int(bufRaw)%8 + 1
		epochs := int(epochsRaw)%3 + 1
		ahead := int(aheadRaw) % 3
		rng := rand.New(rand.NewSource(seed))

		s := sim.New()
		env := conc.NewSimEnv(s)
		ok := true
		s.Spawn("driver", func(*sim.Process) {
			samples := make([]dataset.Sample, nFiles)
			for i := range samples {
				samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d", i), Size: int64(rng.Intn(200_000) + 1000)}
			}
			man := dataset.MustNew(samples)
			dev, err := storage.NewDevice(env, storage.DeviceSpec{
				BaseLatency:    time.Duration(rng.Intn(900)+100) * time.Microsecond,
				BytesPerSecond: 1e9,
				Channels:       rng.Intn(4) + 1,
			})
			if err != nil {
				ok = false
				return
			}
			backend := storage.NewModeledBackend(man, dev)
			var pool *mempool.Pool
			if usePool {
				pool = mempool.New(mempool.Config{Debug: true})
				backend.SetBufferPool(pool)
			}
			st, err := NewStage(env, backend, man, StageConfig{
				InitialProducers:      producers,
				MaxProducers:          8,
				InitialBufferCapacity: bufCap,
				MaxBufferCapacity:     64,
				BufferAccessCost:      time.Duration(rng.Intn(20)) * time.Microsecond,
			})
			if err != nil {
				ok = false
				return
			}
			st.Start()
			defer st.Close()

			plans := make([][]string, epochs)
			want := make(map[string]int)
			for e := range plans {
				plans[e] = man.EpochFileList(seed, e)
				for i := range plans[e] {
					if repeat && rng.Intn(4) == 0 {
						plans[e][i] = plans[e][rng.Intn(i+1)]
					}
					want[plans[e][i]]++
				}
			}
			submitted := 0
			submitThrough := func(last int) bool {
				for ; submitted <= last && submitted < epochs; submitted++ {
					if err := st.SubmitPlan(plans[submitted]); err != nil {
						return false
					}
				}
				return true
			}
			delivered := make(map[string]int)
			for epoch, plan := range plans {
				// Epoch epoch+ahead is submitted as soon as epoch starts.
				if !submitThrough(epoch + ahead) {
					ok = false
					return
				}
				for i, name := range plan {
					// Random consumer pacing and mid-run retuning.
					if rng.Intn(4) == 0 {
						env.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					}
					if i%17 == 5 {
						st.SetProducers(rng.Intn(8) + 1)
					}
					if i%23 == 7 {
						st.SetBufferCapacity(rng.Intn(32) + 1)
					}
					data, _, err := st.Read(ReadRequest{Name: name})
					if err != nil || data.Name != name {
						ok = false
						return
					}
					if usePool && len(data.Bytes) == 0 {
						ok = false // pooled run must carry real payloads
						return
					}
					data.Release()
					delivered[name]++
				}
			}

			// Exactly one delivery per plan entry.
			for _, sm := range samples {
				if delivered[sm.Name] != want[sm.Name] {
					ok = false
					return
				}
			}
			stats := st.Stats()
			total := int64(nFiles * epochs)
			if stats.Hits != total || stats.Bypasses != 0 || stats.Errors != 0 {
				ok = false
				return
			}
			// No leaked samples in the buffer and an empty queue.
			if stats.Buffer.Len != 0 || stats.QueueLen != 0 {
				ok = false
				return
			}
			// Puts and takes balance.
			if stats.Buffer.Puts != stats.Buffer.Takes || stats.Buffer.Puts != total {
				ok = false
				return
			}
			// Pooling: with every delivery released and the pipeline
			// drained, no lease may remain outstanding — mid-run retunes
			// (capacity shrinks, reshards) must have released evicted
			// buffers too.
			if pool != nil {
				if pool.Stats().Outstanding != 0 || len(pool.Leaks()) != 0 {
					ok = false
					return
				}
				if pool.Stats().Gets < total {
					ok = false // audit must cover at least every delivery
					return
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferNeverExceedsCapacityProperty hammers the buffer with random
// producer/consumer schedules and asserts the occupancy bound: at most
// capacity + (samples being actively awaited) items are ever resident.
func TestBufferNeverExceedsCapacityProperty(t *testing.T) {
	prop := func(seed int64, capRaw, itemsRaw uint8) bool {
		capacity := int(capRaw)%6 + 1
		items := int(itemsRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))

		s := sim.New()
		env := conc.NewSimEnv(s)
		ok := true
		s.Spawn("driver", func(*sim.Process) {
			b := NewBuffer(env, capacity, 0)
			maxLen := 0
			wg := env.NewWaitGroup()
			wg.Add(2)
			env.Go("producer", func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					env.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					if _, err := b.Put(Item{PlanPos: at(i)}); err != nil {
						return
					}
					if l := b.Len(); l > maxLen {
						maxLen = l
					}
				}
			})
			env.Go("consumer", func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					env.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					if _, err := b.Take(at(i), TakeOptions{}); err != nil {
						return
					}
				}
			})
			wg.Wait()
			// One consumer: overshoot bound is capacity + 1.
			if maxLen > capacity+1 {
				ok = false
			}
			if b.Len() != 0 {
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
