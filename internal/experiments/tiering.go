package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// TieringRow is one cell of a tiering experiment: a full multi-epoch run
// of one backend configuration over a deterministic access trace.
type TieringRow struct {
	Setup   string
	Epochs  []time.Duration // virtual duration of each epoch
	Total   time.Duration
	HitRate float64 // fast hits / (fast hits + slow reads); 0 for slow-only
	Stats   tiering.Stats
}

// tieringCell parameterizes one run. capacity == 0 disables tiering (the
// slow-tier baseline). Epoch traces are explicit so skew and prefetch
// cells can shape them; prefetchAt[i] is a plan handed to the warmer at
// the start of epoch i (PR 5's plan manager knows the next epoch's order
// at SubmitEpoch time — here the cell passes it by hand).
type tieringCell struct {
	files        int
	fileSize     int
	ratio        float64 // incompressible fraction of each payload
	capacity     int64
	promoteAfter int
	maxTracked   int
	compress     bool
	epochs       [][]string
	prefetchAt   map[int][]string
}

// timedBackend charges a modeled slow-tier device for every payload read
// while the bytes themselves come from an in-memory dataset, so the live
// tiering path (real promotion, real LZ compression) runs under
// deterministic virtual-time device costs.
type timedBackend struct {
	inner  *storage.MemBackend
	device *storage.Device
}

func (b *timedBackend) Read(req storage.Request) (storage.Response, error) {
	resp, err := b.inner.Read(req)
	if err != nil {
		return resp, err
	}
	b.device.Read(resp.Data.Size)
	return resp, nil
}

// Size is metadata only — no device charge (the warmer probes sizes
// before deciding to transfer).
func (b *timedBackend) Size(name string) (int64, error) { return b.inner.Size(name) }

// tieringName is the canonical sample name for index i.
func tieringName(i int) string { return fmt.Sprintf("sample-%04d", i) }

// CompressibleSample builds file i's payload: per 512-byte block, roughly
// ratio of the bytes are seeded pseudo-random (incompressible to the LZ
// codec) and the rest a constant run it collapses, so the stored size of
// a compressed resident tracks ratio closely. Deterministic per (i, size,
// ratio).
func CompressibleSample(i, size int, ratio float64) []byte {
	buf := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
	const block = 512
	for off := 0; off < size; off += block {
		end := off + block
		if end > size {
			end = size
		}
		keep := off + int(float64(end-off)*ratio)
		rng.Read(buf[off:keep])
		for j := keep; j < end; j++ {
			buf[j] = 0xA5
		}
	}
	return buf
}

// runTieringCell executes one cell in a fresh deterministic simulation:
// a single consumer reads each epoch's trace in order, the slow tier is
// an NFS-class device, the fast tier an NVMe-class one.
func runTieringCell(setup string, c tieringCell) (TieringRow, error) {
	row := TieringRow{Setup: setup}
	var runErr error

	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("tiering-cell", func(*sim.Process) {
		mem := storage.NewMemBackend()
		for i := 0; i < c.files; i++ {
			mem.Add(tieringName(i), CompressibleSample(i, c.fileSize, c.ratio))
		}
		slowDev, err := storage.NewDevice(env, storage.NFSShare())
		if err != nil {
			runErr = err
			return
		}
		slow := &timedBackend{inner: mem, device: slowDev}
		layers := chain.Config{WarmNextEpoch: true}
		if c.capacity > 0 {
			if layers.Fast, err = storage.NewDevice(env, storage.P4600()); err != nil {
				runErr = err
				return
			}
			layers.Hierarchy = tiering.Config{
				FastCapacity: c.capacity,
				PromoteAfter: c.promoteAfter,
				MaxTracked:   c.maxTracked,
				Compress:     c.compress,
			}
		}
		ch := &chain.Chain{Env: env, Backend: slow}
		if runErr = ch.Fold(layers); runErr != nil {
			return
		}
		defer ch.Close()

		start := env.Now()
		for ei, names := range c.epochs {
			if plan, ok := c.prefetchAt[ei]; ok {
				ch.Plan(plan)
			}
			epochStart := env.Now()
			for _, name := range names {
				resp, err := ch.Backend.Read(storage.Request{Name: name})
				if err != nil {
					runErr = err
					return
				}
				resp.Data.Release()
			}
			row.Epochs = append(row.Epochs, env.Now()-epochStart)
		}
		row.Total = env.Now() - start
		var st core.StageStats
		ch.Snapshot(&st)
		row.Stats = st.Tiering
		if total := row.Stats.FastHits + row.Stats.SlowReads; total > 0 {
			row.HitRate = float64(row.Stats.FastHits) / float64(total)
		}
	})
	if err := s.Run(); err != nil {
		return row, fmt.Errorf("experiments: tiering cell %s: %w", setup, err)
	}
	return row, runErr
}

// sequentialEpochs builds n identical full-dataset passes (the worst case
// for a tier smaller than the dataset that promotes on every miss: every
// pass rediscovers every sample just after it was evicted).
func sequentialEpochs(files, n int) [][]string {
	one := make([]string, files)
	for i := range one {
		one[i] = tieringName(i)
	}
	epochs := make([][]string, n)
	for e := range epochs {
		epochs[e] = one
	}
	return epochs
}

// RunTieringCrossover measures where tiering starts paying off when the
// dataset is far larger than the fast tier: a 6 MiB dataset cycled
// sequentially for 3 epochs over a 2 MiB tier. Every sample is equally hot,
// so the undersized tier fills once, declines the rest and hits its
// capacity fraction from epoch 2 on (promote-on-every-miss LRU hit nothing
// here and paid a promotion copy per read, ending slower than no tier);
// transparent compression (~25% incompressible payloads) shrinks the
// working set under the byte budget, and a tier sized to fit the dataset
// bounds the achievable speedup.
func RunTieringCrossover(report func(string)) ([]TieringRow, error) {
	const (
		files    = 96
		fileSize = 64 << 10
		epochs   = 3
	)
	base := tieringCell{
		files:        files,
		fileSize:     fileSize,
		ratio:        0.25,
		promoteAfter: 1,
		epochs:       sequentialEpochs(files, epochs),
	}
	cells := []struct {
		setup string
		mod   func(*tieringCell)
	}{
		{"slow-only", func(c *tieringCell) {}},
		{"tiered", func(c *tieringCell) { c.capacity = 2 << 20 }},
		{"tiered+compress", func(c *tieringCell) { c.capacity = 2 << 20; c.compress = true }},
		{"tiered-fits", func(c *tieringCell) { c.capacity = 8 << 20 }},
	}
	rows := make([]TieringRow, 0, len(cells))
	for _, cell := range cells {
		c := base
		cell.mod(&c)
		row, err := runTieringCell(cell.setup, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if report != nil {
			report(fmt.Sprintf("crossover %-16s total=%-10v hit-rate=%.0f%%",
				row.Setup, row.Total.Round(time.Millisecond), row.HitRate*100))
		}
	}
	return rows, nil
}

// RunTieringSkew measures skewed per-tenant popularity: 90 cold samples
// interleaved with a 10-sample hot set re-read nine times per epoch, over
// a tier that holds only ~16 samples. PromoteAfter=2 keeps one-shot cold
// reads out of the tier, and the bounded access map (MaxTracked=32, far
// below the 90 cold names seen per epoch) forces decay sweeps — the cell
// doubles as a regression check that popularity survives them. Returns
// (slow-only baseline, tiered).
func RunTieringSkew(report func(string)) (TieringRow, TieringRow, error) {
	const (
		hot      = 10
		cold     = 90
		fileSize = 64 << 10
		epochs   = 3
	)
	trace := make([]string, 0, 2*cold)
	for i := 0; i < cold; i++ {
		trace = append(trace, tieringName(hot+i))
		trace = append(trace, tieringName(i%hot))
	}
	epochTraces := make([][]string, epochs)
	for e := range epochTraces {
		epochTraces[e] = trace
	}
	base := tieringCell{
		files:        hot + cold,
		fileSize:     fileSize,
		ratio:        1, // incompressible: isolate the placement policy
		promoteAfter: 2,
		maxTracked:   32,
		epochs:       epochTraces,
	}
	baseline, err := runTieringCell("slow-only", base)
	if err != nil {
		return TieringRow{}, TieringRow{}, err
	}
	tiered := base
	tiered.capacity = 1 << 20
	tieredRow, err := runTieringCell("tiered-skew", tiered)
	if err != nil {
		return TieringRow{}, TieringRow{}, err
	}
	if report != nil {
		report(fmt.Sprintf("skew %-16s total=%v", baseline.Setup, baseline.Total.Round(time.Millisecond)))
		report(fmt.Sprintf("skew %-16s total=%v hit-rate=%.0f%% decays=%d",
			tieredRow.Setup, tieredRow.Total.Round(time.Millisecond),
			tieredRow.HitRate*100, tieredRow.Stats.AccessDecays))
	}
	return baseline, tieredRow, nil
}

// RunTieringPrefetch measures next-epoch warming: epoch 0 promotes the
// 32-sample warm half, epoch 1 re-reads it ten times (all fast hits —
// the slow tier is idle), and epoch 2 reads warm+cold. With the epoch-2
// plan submitted at the start of epoch 1, the warmer pulls the cold half
// into free fast-tier space while epoch 1 trains, so epoch 2 starts hot.
// Returns (without prefetch, with prefetch).
func RunTieringPrefetch(report func(string)) (TieringRow, TieringRow, error) {
	const (
		half     = 32
		fileSize = 64 << 10
	)
	warm := make([]string, half)
	cold := make([]string, half)
	for i := 0; i < half; i++ {
		warm[i] = tieringName(i)
		cold[i] = tieringName(half + i)
	}
	var warmLoop []string
	for i := 0; i < 10; i++ {
		warmLoop = append(warmLoop, warm...)
	}
	all := append(append([]string(nil), warm...), cold...)

	base := tieringCell{
		files:        2 * half,
		fileSize:     fileSize,
		ratio:        1,
		capacity:     8 << 20, // fits the whole dataset: isolate warming
		promoteAfter: 1,
		epochs:       [][]string{warm, warmLoop, all},
	}
	without, err := runTieringCell("no-prefetch", base)
	if err != nil {
		return TieringRow{}, TieringRow{}, err
	}
	pref := base
	pref.prefetchAt = map[int][]string{1: all}
	with, err := runTieringCell("prefetch-next", pref)
	if err != nil {
		return TieringRow{}, TieringRow{}, err
	}
	if report != nil {
		report(fmt.Sprintf("prefetch %-14s epoch2=%v", without.Setup, without.Epochs[2].Round(time.Millisecond)))
		report(fmt.Sprintf("prefetch %-14s epoch2=%v warmed=%d skipped=%d",
			with.Setup, with.Epochs[2].Round(time.Millisecond),
			with.Stats.PrefetchPromotions, with.Stats.PrefetchSkips))
	}
	return without, with, nil
}

// RenderTiering writes tiering rows as the usual text table.
func RenderTiering(w io.Writer, title string, rows []TieringRow) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		epochs := make([]string, len(r.Epochs))
		for i, d := range r.Epochs {
			epochs[i] = d.Round(time.Millisecond).String()
		}
		table = append(table, []string{
			r.Setup,
			r.Total.Round(time.Millisecond).String(),
			fmt.Sprint(epochs),
			fmt.Sprintf("%.0f%%", r.HitRate*100),
			fmt.Sprint(r.Stats.Residents),
			fmt.Sprintf("%.1f MiB", float64(r.Stats.FastUsed)/(1<<20)),
			fmt.Sprint(r.Stats.PrefetchPromotions),
		})
	}
	return WriteTable(w, []string{"setup", "total", "epochs", "hit-rate", "residents", "tier-used", "prefetched"}, table)
}
