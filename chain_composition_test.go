package prisma

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/experiments"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// chainSwitch turns on, in Options, one way of building a row of
// chain.Layers; tier and cacheBytes size the memory hierarchy's two budgets.
type chainSwitch struct {
	row, name string
	on        func(o *Options, tier TieringOptions, cacheBytes int64)
}

// chainSwitches lists the switches of every row of chain.Layers, in table
// order: the hierarchy has two, its two budgets. A row without an entry
// here fails every composition test, so no layer goes untested.
func chainSwitches(t *testing.T) []chainSwitch {
	t.Helper()
	byRow := map[string][]chainSwitch{
		"recorder": {{name: "recorder", on: func(o *Options, _ TieringOptions, _ int64) { o.TraceFile = os.DevNull }}},
		"hierarchy": {
			{name: "cache", on: func(o *Options, _ TieringOptions, cacheBytes int64) {
				o.Tenancy = TenancyOptions{Enable: true, SharedCacheBytes: cacheBytes}
			}},
			{name: "tiering", on: func(o *Options, tier TieringOptions, _ int64) { o.Tiering = tier }},
		},
		"resilient": {{name: "resilient", on: func(o *Options, _ TieringOptions, _ int64) { o.DisableResilience = false }}},
	}
	var out []chainSwitch
	for _, l := range chain.Layers {
		sw, ok := byRow[l.Name]
		if !ok {
			t.Fatalf("chain row %q has no switch in chainSwitches", l.Name)
		}
		for _, s := range sw {
			s.row = l.Name
			out = append(out, s)
		}
	}
	return out
}

// chainCell is one subset of the switches: bit i turns switches[i] on.
type chainCell struct {
	switches []chainSwitch
	mask     int
}

// chainCells is every subset of the table's switches.
func chainCells(t *testing.T) []chainCell {
	sw := chainSwitches(t)
	cells := make([]chainCell, 1<<len(sw))
	for m := range cells {
		cells[m] = chainCell{switches: sw, mask: m}
	}
	return cells
}

// chainCellOf is the cell of the named switches.
func chainCellOf(t *testing.T, names ...string) chainCell {
	t.Helper()
	c := chainCell{switches: chainSwitches(t)}
	for _, n := range names {
		i := slices.IndexFunc(c.switches, func(sw chainSwitch) bool { return sw.name == n })
		if i < 0 {
			t.Fatalf("no chain switch %q", n)
		}
		c.mask |= 1 << i
	}
	return c
}

func (c chainCell) has(name string) bool {
	for i, sw := range c.switches {
		if sw.name == name {
			return c.mask&(1<<i) != 0
		}
	}
	return false
}

func (c chainCell) String() string {
	var on []string
	for i, sw := range c.switches {
		if c.mask&(1<<i) != 0 {
			on = append(on, sw.name)
		}
	}
	if len(on) == 0 {
		return "bare"
	}
	return strings.Join(on, "<")
}

// fold folds the table into ch (its clock, pool and leaf set) for the cell,
// as Open does, and checks it built exactly the rows the cell switched on.
// ch.Close undoes it.
func (c chainCell) fold(t *testing.T, ch *chain.Chain, tier TieringOptions, cacheBytes int64) *chain.Chain {
	t.Helper()
	opts := Options{DisableResilience: true, ReadDeadline: 10 * time.Second}
	on := map[string]bool{}
	for i, sw := range c.switches {
		if c.mask&(1<<i) != 0 {
			sw.on(&opts, tier, cacheBytes)
			on[sw.row] = true
		}
	}
	var want []string
	for _, l := range chain.Layers {
		if on[l.Name] {
			want = append(want, l.Name)
		}
	}
	if err := ch.Fold(chainConfig(opts.withDefaults())); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ch.Built) != fmt.Sprint(want) {
		t.Fatalf("%s: the fold built %v, want %v", c, ch.Built, want)
	}
	return ch
}

// foldOptions folds the chain table into ch — its clock, pool, tracer and
// leaf set — for opts, mapped as Open maps them. ch.Close undoes it.
func foldOptions(t testing.TB, ch *chain.Chain, opts Options) *chain.Chain {
	t.Helper()
	if err := ch.Fold(chainConfig(opts.withDefaults())); err != nil {
		t.Fatal(err)
	}
	return ch
}

// tierStats is the memory hierarchy's part of the chain's snapshot.
func tierStats(ch *chain.Chain) tiering.Stats {
	var s core.StageStats
	ch.Snapshot(&s)
	return s.Tiering
}

// wholeFileChain is the fixture of the whole-file composition cells: 32
// compressible 4 KiB files in a pooled MemBackend under the chain a cell
// folds, streamed through the prefetch pipeline by two producers. When the
// cell switches the cache on, the shared cache adds wholeCacheBytes to the
// hierarchy's budget. The stage shows the chain no plan, so a compressing
// tier encodes every resident main admits.
type wholeFileChain struct {
	names    []string
	contents map[string][]byte
	chain    *chain.Chain
	pool     *mempool.Pool
	stage    *core.Stage
	rng      *rand.Rand
}

const (
	wholeFiles      = 32
	wholeFileSize   = 4 << 10
	wholeCacheBytes = wholeFiles * wholeFileSize / 16
)

func newWholeFileChain(t *testing.T, wrap chainCell, tier TieringOptions, seed int64) *wholeFileChain {
	t.Helper()
	env := conc.NewReal()
	mem := storage.NewMemBackend()
	c := &wholeFileChain{
		names:    make([]string, wholeFiles),
		contents: map[string][]byte{},
		pool:     mempool.New(mempool.Config{Debug: true}),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("whole%04d.bin", i)
		c.contents[c.names[i]] = experiments.CompressibleSample(i, wholeFileSize, 0.5) // the tier stores it at about half size
		mem.Add(c.names[i], c.contents[c.names[i]])
	}
	mem.SetBufferPool(c.pool)
	c.chain = wrap.fold(t, &chain.Chain{Env: env, Pool: c.pool, Backend: mem}, tier, wholeCacheBytes)
	stage, err := core.NewStage(env, c.chain.Backend, testManifest(c.names, wholeFileSize), core.StageConfig{
		InitialProducers:      2,
		MaxProducers:          2,
		InitialBufferCapacity: 8,
		MaxBufferCapacity:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.stage = stage
	t.Cleanup(func() { c.stage.Close() })
	c.stage.Start()
	return c
}

// epoch submits one shuffled pass over the set and reads it back, failing
// on any payload that differs from ground truth.
func (c *wholeFileChain) epoch(t *testing.T, e int) {
	t.Helper()
	plan := make([]string, len(c.names))
	for i, j := range c.rng.Perm(len(c.names)) {
		plan[i] = c.names[j]
	}
	if err := c.stage.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range plan {
		d, _, err := c.stage.Read(core.ReadRequest{Name: name})
		if err != nil {
			t.Fatalf("epoch %d: read %s: %v", e, name, err)
		}
		same := bytes.Equal(d.Bytes, c.contents[name])
		d.Release()
		if !same {
			t.Fatalf("epoch %d: %s: payload differs from ground truth", e, name)
		}
	}
}

// closeAndAudit closes the stage and the chain and fails if the pool still
// has a lease out.
func (c *wholeFileChain) closeAndAudit(t *testing.T) {
	t.Helper()
	c.stage.Close()
	c.chain.Close()
	if leaks := c.pool.Leaks(); len(leaks) != 0 {
		t.Fatalf("pool leaks:\n%s", mempool.FormatLeaks(leaks))
	}
	if n := c.pool.Outstanding(); n != 0 {
		t.Fatalf("%d pooled refs still outstanding", n)
	}
}

// TestChainCompositionDecliningTier is the chain-composition property
// suite, over every subset of the table's switches: whole files, a
// compressing tier a quarter the size of the set (plus the shared cache's
// recency window, when on), shuffled epochs, each delivery bit-identical to
// ground truth and the pool audit finding nothing held once the chain is
// closed. With the tier on, from the second epoch on every miss is offered
// to a full tier and declined, concurrently from two producers, next to
// hits that decode residents — for every subset of the other wrappers
// around it the hierarchy stays within its budget without swapping a
// resident of the tier's part.
func TestChainCompositionDecliningTier(t *testing.T) {
	const (
		files  = wholeFiles
		epochs = 4
	)
	for _, wrap := range chainCells(t) {
		t.Run(wrap.String(), func(t *testing.T) {
			c := newWholeFileChain(t, wrap,
				TieringOptions{Enable: true, CapacityBytes: files * wholeFileSize / 4, Compress: true}, 22)
			if !wrap.has("tiering") {
				for e := 0; e < epochs; e++ {
					c.epoch(t, e)
				}
				c.closeAndAudit(t)
				return
			}
			var filled tiering.Stats
			for e := 0; e < epochs; e++ {
				c.epoch(t, e)
				st := tierStats(c.chain)
				if st.FastUsed > st.Capacity {
					t.Fatalf("epoch %d: tier over-committed: %+v", e, st)
				}
				if e == 0 {
					filled = st
				}
			}
			st := tierStats(c.chain)
			c.closeAndAudit(t)
			// The tier's part of the budget evicts only to admit, and every
			// admission is a promotion: with none after epoch 1, each one is
			// still resident. The shared cache's recency window, when on,
			// swaps its two raw residents on every miss by design.
			kept := filled.Promotions
			if kept == 0 || kept == files {
				t.Fatalf("fixture: the tier should hold part of the set after epoch 1: %+v", filled)
			}
			if st.Promotions != filled.Promotions || (!wrap.has("cache") && st.Evictions != 0) {
				t.Fatalf("a uniform shuffle swapped residents: after epoch 1 %+v, at the end %+v", filled, st)
			}
			hits, declined := st.FastHits-filled.FastHits, st.Declined-filled.Declined
			if want := int64((epochs - 1) * files); hits+declined != want {
				t.Fatalf("%d hits + %d declined misses after epoch 1, want %d (every read one or the other)", hits, declined, want)
			}
			if want := (epochs - 1) * kept; hits < want || (!wrap.has("cache") && hits != want) {
				t.Fatalf("%d tier hits after epoch 1, want %d (every resident, every epoch) plus the window's", hits, want)
			}
		})
	}
}

// TestChainCompositionHeldOnce pins what the one hierarchy holds: every
// sample at most once, and exactly what it is charged. Over a budget that
// fits the set every name ends resident; over a quarter of it the set splits
// into residents and names held nowhere. Either way a raw resident (every
// resident of the shared cache's recency window is one) pins one pooled
// lease and a compressed one none, so once the epochs have drained
// the pool's outstanding leases are exactly the raw residents — no layer
// retains a sample a second time. Same fixture as above, with
// Compress on and off, around the bare hierarchy and the full chain, each
// with and without the shared cache's share of the one budget —
// byte-identity to ground truth and the pool audit as in the cells above.
func TestChainCompositionHeldOnce(t *testing.T) {
	const files = wholeFiles
	for _, cell := range []struct {
		name     string
		capacity int64
		compress bool
	}{
		{"fits", 2 * files * wholeFileSize, false},
		{"fits-compress", 2 * files * wholeFileSize, true},
		{"quarter", files * wholeFileSize / 4, false},
		{"quarter-compress", files * wholeFileSize / 4, true},
	} {
		for _, wrap := range []chainCell{
			chainCellOf(t, "tiering"),
			chainCellOf(t, "cache", "tiering"),
			chainCellOf(t, "recorder", "tiering", "resilient"),
			chainCellOf(t, "recorder", "cache", "tiering", "resilient"),
		} {
			t.Run(cell.name+"/"+wrap.String(), func(t *testing.T) {
				c := newWholeFileChain(t, wrap,
					TieringOptions{Enable: true, CapacityBytes: cell.capacity, Compress: cell.compress}, 23)
				for e := 0; e < 2; e++ {
					c.epoch(t, e)
				}
				st := tierStats(c.chain)
				if st.FastUsed > st.Capacity {
					t.Fatalf("over-committed: %+v", st)
				}
				if st.Capacity != cell.capacity && !(wrap.has("cache") && st.Capacity == cell.capacity+wholeCacheBytes) {
					t.Fatalf("budget %d, want the tier's %d plus the shared cache's share when on", st.Capacity, cell.capacity)
				}
				if fits := st.Capacity >= files*wholeFileSize; fits && st.Residents != files {
					t.Fatalf("set fits the budget: %d residents, want %d", st.Residents, files)
				} else if !fits && (st.Residents == 0 || st.Residents == files || (!wrap.has("cache") && st.Evictions != 0)) {
					t.Fatalf("quarter budget: %+v; want part of the set resident and nothing swapped", st)
				}
				raw := int64(st.Residents)
				if cell.compress {
					raw = 0
					if wrap.has("cache") && st.Capacity < files*wholeFileSize {
						// The shared cache's recency window keeps its
						// residents raw, and by now it is full.
						raw = wholeCacheBytes / wholeFileSize
					}
				}
				if n := c.pool.Outstanding(); n != raw {
					t.Fatalf("%d pooled leases out for %d residents (compress %v): want one per raw resident", n, st.Residents, cell.compress)
				}
				c.closeAndAudit(t)
			})
		}
	}
}
