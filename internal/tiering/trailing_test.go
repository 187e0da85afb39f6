package tiering

import (
	"math/rand"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// trailingJobs runs two jobs over one hierarchy built from cfg and a dataset
// of files 100 kB samples. Both read the same seeded permutation each epoch,
// one read per 20 ms training step (the slow tier answers in 10 ms), the
// second job drift steps behind the first. It returns the slow tier's reads
// per unique sample per epoch: 1 when the second job never re-reads.
func trailingJobs(t *testing.T, cfg Config, files, drift, epochs int) float64 {
	t.Helper()
	var reads int64
	runSim(t, func(env conc.Env) {
		b, dev, names := deviceFixture(env, cfg, files, 100_000)
		const step = 20 * time.Millisecond
		wg := env.NewWaitGroup()
		wg.Add(2)
		job := func(offset time.Duration) {
			defer wg.Done()
			start := env.Now() + offset
			i := 0
			for e := 0; e < epochs; e++ {
				plan := append([]string(nil), names...)
				rand.New(rand.NewSource(int64(e))).Shuffle(len(plan), func(a, c int) { plan[a], plan[c] = plan[c], plan[a] })
				for _, n := range plan {
					if d := start + time.Duration(i)*step - env.Now(); d > 0 {
						env.Sleep(d)
					}
					i++
					d, err := readFile(b, n)
					if err != nil {
						t.Error(err)
						return
					}
					d.Release()
				}
			}
		}
		env.Go("leading", func() { job(0) })
		env.Go("trailing", func() { job(time.Duration(drift) * step) })
		wg.Wait()
		reads = dev.Stats().Reads
	})
	return float64(reads) / float64(files*epochs)
}

// TestWindowKeepsWhatMainDeclines: with main full of equally hot residents,
// each further miss is declined by main and kept by the window instead,
// which evicts only its own least recently used resident to make room.
func TestWindowKeepsWhatMainDeclines(t *testing.T) {
	runSim(t, func(env conc.Env) {
		b, dev, names := deviceFixture(env, Config{FastCapacity: 4000, Window: 2000, PromoteAfter: 1}, 6, 1000)
		for _, n := range names {
			if _, err := readFile(b, n); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range names {
			if want := i < 2 || i >= 4; b.Resident(n) != want {
				t.Fatalf("%s resident %v, want %v (main keeps the first two, the window the last two)", n, b.Resident(n), want)
			}
		}
		st := b.Stats()
		if st.Promotions != 2 || st.Declined != 4 || st.Evictions != 2 || st.FastUsed != 4000 {
			t.Fatalf("%+v; want 2 promotions, 4 declines kept by the window, 2 window evictions", st)
		}
		if _, err := readFile(b, names[4]); err != nil || dev.Stats().Reads != 6 {
			t.Fatalf("re-read of a window resident: %v, %d device reads; want a hit", err, dev.Stats().Reads)
		}
	})
}

// TestTrailingJobReadsFromWindow is the shared cache's contract over a budget
// smaller than the dataset (a quarter of it): a job trailing another by fewer
// samples than the recency window holds costs no device read of its own —
// at most 1.02 device reads per unique sample — whether the window is the
// whole budget (the shared cache alone) or half of it (beside the tier).
// Without a window the tier's scan-resistant rule declines each sample the
// leading job reads, and the trailing job reads it again.
func TestTrailingJobReadsFromWindow(t *testing.T) {
	const files, size, epochs = 200, 100_000, 3
	cases := []struct {
		name   string
		window int64
		drift  int
		max    float64
	}{
		{"cache-alone/lockstep", 50 * size, 0, 1.02},
		{"cache-alone/drift-5", 50 * size, 5, 1.02},
		{"cache-alone/drift-20", 50 * size, 20, 1.02},
		{"cache-beside-tier/drift-5", 25 * size, 5, 1.02},
		{"tier-alone/drift-5", 0, 5, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := trailingJobs(t, Config{FastCapacity: 50 * size, Window: c.window, PromoteAfter: 1}, files, c.drift, epochs)
			if got > c.max {
				t.Fatalf("%.3f device reads per unique sample, want <= %.2f", got, c.max)
			}
			if c.window == 0 && got < 1.5 {
				t.Fatalf("%.3f device reads per unique sample without a window: the trailing job should re-read what the tier declined", got)
			}
		})
	}
}
