package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// The read-ahead contract (DESIGN.md §19), over real sockets with a debug
// pool on both sides: every test ends with a leak audit of both.

// countingBackend counts the reads that reach storage.
type countingBackend struct {
	storage.Backend
	reads atomic.Int64
}

func (b *countingBackend) Read(req storage.Request) (storage.Response, error) {
	b.reads.Add(1)
	return b.Backend.Read(req)
}

// aheadFixture is a served stage over an in-memory dataset: planned names
// plus a few that never enter a plan.
type aheadFixture struct {
	t         *testing.T
	srv       *Server
	stage     *core.Stage
	mem       *storage.MemBackend
	backend   *countingBackend
	pool      *mempool.Pool // the server side's
	names     []string
	unplanned []string
	sock      string
	clients   []*mempool.Pool
}

func startAheadServer(t *testing.T, nFiles, size int) *aheadFixture {
	t.Helper()
	return startAheadServerPool(t, nFiles, size, mempool.New(mempool.Config{Debug: true}))
}

func startAheadServerPool(t *testing.T, nFiles, size int, pool *mempool.Pool) *aheadFixture {
	t.Helper()
	return startAheadServerWith(t, nFiles, size, pool, ServeConfig{Tenants: regionTenants(t)})
}

// regionTenants is a tenant manager for a fixture's server: a server with
// tenants grants each connection a payload region of its own (DESIGN.md
// §28) rather than its shared arena. The stage is given no tenant gate, so
// reads are served as on a server without tenants.
func regionTenants(t testing.TB) *tenancy.Manager {
	t.Helper()
	m, err := tenancy.New(conc.NewReal(), tenancy.Config{Capacity: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startAheadServerWith is startAheadServerPool serving with cfg.
func startAheadServerWith(t *testing.T, nFiles, size int, pool *mempool.Pool, cfg ServeConfig) *aheadFixture {
	t.Helper()
	fx := &aheadFixture{t: t, mem: storage.NewMemBackend(), pool: pool}
	fx.mem.SetBufferPool(fx.pool)
	var samples []dataset.Sample
	for i := 0; i < nFiles; i++ {
		fx.names = append(fx.names, fmt.Sprintf("train/%05d.bin", i))
		fx.mem.AddSeeded(fx.names[i], size+i%97, int64(i)+1)
		samples = append(samples, dataset.Sample{Name: fx.names[i], Size: int64(size + i%97)})
	}
	for i := 0; i < 64; i++ {
		fx.unplanned = append(fx.unplanned, fmt.Sprintf("val/%03d.bin", i))
		fx.mem.AddSeeded(fx.unplanned[i], size, int64(-i)-1)
		samples = append(samples, dataset.Sample{Name: fx.unplanned[i], Size: int64(size)})
	}
	fx.backend = &countingBackend{Backend: fx.mem}
	env := conc.NewReal()
	pf, err := core.NewPrefetcher(env, fx.backend, dataset.MustNew(samples), core.PrefetcherConfig{
		InitialProducers: 2, MaxProducers: 2, InitialBufferCapacity: 64, MaxBufferCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.stage = core.NewStage(env, fx.backend, pf)
	fx.stage.SetBufferPool(fx.pool)
	pf.Start()
	fx.sock = filepath.Join(t.TempDir(), "ahead.sock")
	if fx.srv, err = ServeWithConfig(fx.sock, fx.stage, nil, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fx.srv.Close()
		fx.stage.Close()
	})
	return fx
}

// dial connects a pooled client whose pool joins the final audit.
func (fx *aheadFixture) dial() *Client {
	fx.t.Helper()
	c, err := Dial(fx.sock)
	if err != nil {
		fx.t.Fatal(err)
	}
	pool := mempool.New(mempool.Config{Debug: true})
	c.SetBufferPool(pool)
	fx.clients = append(fx.clients, pool)
	fx.t.Cleanup(func() { c.Close() })
	return c
}

// read reads name through c and checks the bytes against the dataset.
func (fx *aheadFixture) read(c *Client, name string) error {
	d, err := c.Read(name)
	if err != nil {
		return fmt.Errorf("Read(%s): %w", name, err)
	}
	defer d.Release()
	want, _ := fx.mem.Content(name)
	if d.Name != name || d.Size != int64(len(want)) || !bytes.Equal(d.Bytes, want) {
		return fmt.Errorf("Read(%s) delivered %q, %d bytes: not the dataset's", name, d.Name, len(d.Bytes))
	}
	return nil
}

func (fx *aheadFixture) mustRead(c *Client, name string) {
	fx.t.Helper()
	if err := fx.read(c, name); err != nil {
		fx.t.Fatal(err)
	}
}

// awaitParked blocks until at least n samples sit in the prefetch buffer (or
// the plan queue has drained), so the next exchange finds them.
func (fx *aheadFixture) awaitParked(n int) {
	fx.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		// Nothing pending means every entry is claimed or already pushed to a
		// client's stash: nothing more will ever park.
		if st := fx.stage.Stats(); st.Buffer.Len >= n || (st.QueueLen == 0 && (st.Buffer.Len > 0 || st.Plan.EntriesPending == 0)) {
			return
		}
		if time.Now().After(deadline) {
			fx.t.Fatalf("buffer never reached %d parked samples", n)
		}
	}
}

// fillStash reads c's stride-1 way through plan from index i until the
// server has pushed at least min samples that c has not read yet, and
// returns the index of the next unread entry (the stash's first).
func (fx *aheadFixture) fillStash(c *Client, plan []string, i, min int) int {
	fx.t.Helper()
	for ; i < len(plan); i++ {
		if stashLen(c) >= min {
			return i
		}
		fx.awaitParked(16)
		fx.mustRead(c, plan[i])
	}
	fx.t.Fatalf("stash never reached %d samples", min)
	return 0
}

func stashLen(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.filled - c.next
}

// audit closes the data plane and requires every lease of every pool home.
func (fx *aheadFixture) audit() {
	fx.t.Helper()
	fx.srv.Close()
	fx.stage.Close()
	for i, p := range append([]*mempool.Pool{fx.pool}, fx.clients...) {
		deadline := time.Now().Add(2 * time.Second)
		for p.Stats().Outstanding != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := p.Stats().Outstanding; got != 0 {
			fx.t.Fatalf("pool %d (0 = server): %d leases outstanding\n%s", i, got, mempool.FormatLeaks(p.Leaks()))
		}
	}
	if fx.pool.Stats().Gets == 0 {
		fx.t.Fatal("server pool never leased a buffer: the audit is vacuous")
	}
}

func shuffled(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestReadAheadStridedClients is the happy path the mechanism exists for:
// two clients stride one shuffled epoch, with unplanned reads interleaved.
// Everything is delivered once and byte-exact, the plan and the backend
// cannot tell read-ahead happened, and most reads never touch the socket.
func TestReadAheadStridedClients(t *testing.T) {
	fx := startAheadServer(t, 2048, 1500)
	clients := []*Client{fx.dial(), fx.dial()}
	var unplannedReads atomic.Int64
	for epoch := int64(0); epoch < 2; epoch++ {
		plan := shuffled(fx.names, epoch)
		if res, err := clients[0].SubmitEpoch(plan); err != nil || res.Enqueued != len(plan) {
			t.Fatalf("SubmitEpoch = %+v, %v", res, err)
		}
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				for i, k := ci, 0; i < len(plan); i, k = i+len(clients), k+1 {
					if err := fx.read(c, plan[i]); err != nil {
						t.Error(err)
						return
					}
					if k%31 == 30 {
						unplannedReads.Add(1)
						if err := fx.read(c, fx.unplanned[(k/31*len(clients)+ci)%len(fx.unplanned)]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(ci, c)
		}
		wg.Wait()
	}
	if t.Failed() {
		return
	}
	planned, unplanned := int64(2*len(fx.names)), unplannedReads.Load()
	st := fx.stage.Stats()
	if st.Plan.Delivered != planned || st.Plan.EpochsLive != 0 || st.Plan.Dropped != 0 {
		t.Fatalf("plan = %+v, want %d delivered and nothing live or dropped", st.Plan, planned)
	}
	if st.Reads != planned+unplanned || st.Hits != planned || st.Bypasses != unplanned || st.Errors != 0 {
		t.Fatalf("reads %d, hits %d, bypasses %d, errors %d; want %d, %d, %d, 0",
			st.Reads, st.Hits, st.Bypasses, st.Errors, planned+unplanned, planned, unplanned)
	}
	if got := fx.backend.reads.Load(); got != planned+unplanned {
		t.Fatalf("backend served %d reads, want %d: read-ahead duplicated or lost storage reads", got, planned+unplanned)
	}
	if frames := st.Reads - st.ReadAheadSamples; frames >= st.Reads/4 {
		t.Fatalf("%d reads took %d socket exchanges, want < 1/4", st.Reads, frames)
	}
	var hits, drops int64
	for _, c := range clients {
		hits += c.StashHits()
		drops += c.StashDrops()
	}
	if hits != st.ReadAheadSamples || drops != 0 || st.ReadAheadWasted != 0 {
		t.Fatalf("stash hits %d of %d pushed, %d dropped, %d reported wasted", hits, st.ReadAheadSamples, drops, st.ReadAheadWasted)
	}
	fx.audit()
}

// TestReadAheadStrideBreak: a reader that changes its stride mid-epoch pays
// for each change with at most one window of dropped samples, and nobody
// pays in correctness: the entries it leaves to a second reader — the
// dropped ones included, whose plan entries went with the push — all arrive
// byte-exact, and the server hears about the waste. (The two readers take
// turns in plan order: an epoch nobody reads in order clogs the prefetch
// buffer, read-ahead or not.)
func TestReadAheadStrideBreak(t *testing.T) {
	fx := startAheadServer(t, 2048, 1200)
	a, b := fx.dial(), fx.dial()
	plan := shuffled(fx.names, 7)
	if _, err := a.SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	// Reader a's share of each leg: every entry, then every 2nd, 3rd, 2nd.
	legs := []struct{ until, stride int }{{300, 1}, {900, 2}, {1500, 3}, {len(plan), 2}}
	leg, legStart := 0, 0
	for i, name := range plan {
		if i == legs[leg].until {
			leg, legStart = leg+1, i
		}
		if i%16 == 0 {
			fx.awaitParked(32)
		}
		if (i-legStart)%legs[leg].stride == 0 {
			fx.mustRead(a, name)
		} else {
			fx.mustRead(b, name)
		}
	}
	drops := a.StashDrops()
	if breaks := int64(len(legs) - 1); drops == 0 || drops > breaks*maxAheadWindow {
		t.Fatalf("%d samples dropped over %d stride changes, want 1..%d", drops, breaks, breaks*maxAheadWindow)
	}
	st := fx.stage.Stats()
	if st.ReadAheadSamples == 0 || st.ReadAheadWasted == 0 || st.ReadAheadWasted > drops+b.StashDrops() {
		t.Fatalf("pushed %d, reported wasted %d, dropped %d", st.ReadAheadSamples, st.ReadAheadWasted, drops)
	}
	if st.Errors != 0 || st.Plan.Delivered != int64(len(plan)) || st.Plan.EpochsLive != 0 {
		t.Fatalf("errors %d, plan %+v", st.Errors, st.Plan)
	}
	// Each dropped sample is read again, by the reader it was not pushed to
	// or by the one that dropped it: one bypass, one more storage read.
	wasted := drops + b.StashDrops()
	if st.Bypasses != wasted || fx.backend.reads.Load() != int64(len(plan))+wasted {
		t.Fatalf("%d bypasses and %d backend reads for %d entries and %d dropped samples",
			st.Bypasses, fx.backend.reads.Load(), len(plan), wasted)
	}
	fx.audit()
}

// TestReadAheadTorchShapedReaders is the pattern read-ahead must not keep
// paying for: two workers alternate batches of 32 consecutive plan entries,
// so each worker's run of unit strides ends in a jump and whatever was
// pushed past the batch boundary belongs to the other worker. Every read is
// still byte-exact, and the waste per connection is bounded by the backoff
// whatever the epoch's length — a window at each confirmation level below
// the batch length, after which the connection either no longer confirms a
// stride or has settled on pushes that end inside the batch — so storage
// sees at most those few samples twice.
func TestReadAheadTorchShapedReaders(t *testing.T) {
	const batch = 32
	fx := startAheadServer(t, 4096, 1000)
	workers := []*Client{fx.dial(), fx.dial()}
	plan := shuffled(fx.names, 3)
	if _, err := workers[0].SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	for b := 0; b*batch < len(plan); b++ {
		fx.awaitParked(48) // the entries past the boundary are there to be mispredicted
		for i := b * batch; i < (b+1)*batch; i++ {
			fx.mustRead(workers[b%2], plan[i])
		}
	}
	// need doubles 2 -> 4 -> 8 -> 16 -> 32, and a batch has only 31 steps.
	const maxWaste = 4 * maxAheadWindow
	var wasted int64
	for i, w := range workers {
		drops := w.StashDrops()
		if drops > maxWaste {
			t.Fatalf("worker %d dropped %d pushed samples, want <= %d", i, drops, maxWaste)
		}
		wasted += drops
	}
	st := fx.stage.Stats()
	if st.ReadAheadSamples == 0 || wasted == 0 {
		t.Fatalf("pushed %d, wasted %d: the pattern was never mispredicted, the test shows nothing", st.ReadAheadSamples, wasted)
	}
	if st.Errors != 0 || st.Plan.Delivered != int64(len(plan)) {
		// Every entry is delivered exactly once — a few to the wrong worker,
		// whose owner then bypasses.
		t.Fatalf("errors %d, delivered %d of %d", st.Errors, st.Plan.Delivered, len(plan))
	}
	if st.Bypasses != wasted || fx.backend.reads.Load() != int64(len(plan))+wasted {
		t.Fatalf("%d bypasses and %d backend reads for %d entries and %d wasted samples",
			st.Bypasses, fx.backend.reads.Load(), len(plan), wasted)
	}
	if limit := int64(len(plan)) * 102 / 100; fx.backend.reads.Load() > limit {
		t.Fatalf("backend served %d reads for a %d-entry plan, want <= %d", fx.backend.reads.Load(), len(plan), limit)
	}
	fx.audit()
}

// TestReadAheadStashLifetime walks every way a non-empty stash ends other
// than being read: each must release the stashed leases.
func TestReadAheadStashLifetime(t *testing.T) {
	t.Run("CancelEpoch", func(t *testing.T) {
		fx := startAheadServer(t, 512, 2000)
		c := fx.dial()
		plan := shuffled(fx.names, 1)
		res, err := c.SubmitEpoch(plan)
		if err != nil {
			t.Fatal(err)
		}
		fx.fillStash(c, plan, 0, 3)
		held := int64(stashLen(c))
		if _, err := c.CancelEpoch(res.Epoch); err != nil {
			t.Fatal(err)
		}
		if stashLen(c) != 0 || c.StashDrops() != held {
			t.Fatalf("after CancelEpoch: %d stashed, %d dropped, want 0, %d", stashLen(c), c.StashDrops(), held)
		}
		fx.audit()
	})
	t.Run("client Close", func(t *testing.T) {
		fx := startAheadServer(t, 512, 2000)
		c := fx.dial()
		plan := shuffled(fx.names, 2)
		if _, err := c.SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		fx.fillStash(c, plan, 0, 3)
		c.Close()
		if _, err := c.Read(plan[0]); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Read after Close = %v", err)
		}
		fx.audit()
	})
	t.Run("poison and redial", func(t *testing.T) {
		fx := startAheadServer(t, 512, 2000)
		c := fx.dial()
		plan := shuffled(fx.names, 3)
		if _, err := c.SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		i := fx.fillStash(c, plan, 0, 3)
		held := stashLen(c)
		fx.srv.severConnsForTest()
		// Stashed samples need no connection...
		fx.mustRead(c, plan[i])
		// ...the first read that does finds it gone: the rest are dropped.
		if err := fx.read(c, plan[i+held]); !errors.Is(err, ErrConnBroken) {
			t.Fatalf("read over a severed connection = %v, want ErrConnBroken", err)
		}
		if stashLen(c) != 0 || c.StashDrops() != int64(held-1) {
			t.Fatalf("after poison: %d stashed, %d dropped, want 0, %d", stashLen(c), c.StashDrops(), held-1)
		}
		// The redialed connection serves everything: the dropped names as
		// bypasses (their plan entries went with the push), the rest planned.
		for _, name := range plan[i+1:] {
			fx.mustRead(c, name)
		}
		if c.Reconnects() != 1 {
			t.Fatalf("Reconnects = %d", c.Reconnects())
		}
		fx.audit()
	})
	t.Run("server Close", func(t *testing.T) {
		fx := startAheadServer(t, 512, 2000)
		c := fx.dial()
		plan := shuffled(fx.names, 4)
		if _, err := c.SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		i := fx.fillStash(c, plan, 0, 3)
		held := stashLen(c)
		fx.srv.Close()
		if err := fx.read(c, plan[i+held]); !errors.Is(err, ErrConnBroken) {
			t.Fatalf("read from a closed server = %v, want ErrConnBroken", err)
		}
		if stashLen(c) != 0 {
			t.Fatalf("%d samples still stashed after the connection died", stashLen(c))
		}
		fx.audit()
	})
}

// panickyGate admits everything until armed, then panics on the third
// non-blocking admission: by then the handler holds the requested sample
// and two pushed ones.
type panickyGate struct {
	armed atomic.Bool
	tries atomic.Int32
}

func (g *panickyGate) Admit(string) error                         { return nil }
func (g *panickyGate) ObserveRead(string, int64, error)           {}
func (g *panickyGate) ObserveLatency(string, time.Duration, bool) {}
func (g *panickyGate) TryAdmit(string) bool {
	if g.armed.Load() && g.tries.Add(1) == 3 {
		panic("gate: boom")
	}
	return true
}

// TestReadAheadHandlerPanicReleasesHeld: a panic in the middle of building a
// multi-sample reply costs the client an error response and the server no
// lease.
func TestReadAheadHandlerPanicReleasesHeld(t *testing.T) {
	fx := startAheadServer(t, 512, 2000)
	gate := &panickyGate{}
	fx.stage.SetTenantGate(gate)
	c := fx.dial()
	plan := shuffled(fx.names, 5)
	res, err := c.SubmitEpoch(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Read until the window has ramped past 2, then up to the stash's end:
	// the next read is a wire exchange that will try to push at least 4.
	i := fx.fillStash(c, plan, 0, 4)
	for ; stashLen(c) > 0; i++ {
		fx.mustRead(c, plan[i])
	}
	fx.awaitParked(16)
	gate.armed.Store(true)
	// The third admission tried while armed panics. That is normally this
	// very exchange; on a loaded machine a producer descheduled mid-read can
	// leave a gap in the parked run and cut the batch short, and then a
	// following exchange gets there.
	var remote *RemoteError
	for tries := 0; remote == nil; i++ {
		if err := fx.read(c, plan[i]); err != nil && !errors.As(err, &remote) {
			t.Fatal(err)
		}
		if tries++; tries > 16 {
			t.Fatal("16 reads behind an armed gate and the handler never panicked")
		}
	}
	i-- // the read that panicked
	if fx.srv.Panics() != 1 || gate.tries.Load() != 3 {
		t.Fatalf("panics %d, admissions tried %d; want 1, 3", fx.srv.Panics(), gate.tries.Load())
	}
	gate.armed.Store(false)
	// Same connection, still in sync; the three samples the panic consumed
	// are gone from the plan, so asking for them bypasses.
	for _, name := range plan[i : i+8] {
		fx.mustRead(c, name)
	}
	if c.Reconnects() != 0 {
		t.Fatal("panic cost the client its connection")
	}
	if _, err := c.CancelEpoch(res.Epoch); err != nil {
		t.Fatal(err)
	}
	fx.audit()
}

// TestReadAheadStaleStash pins the residual hazard of zero-contact stash
// hits: they cannot see an epoch boundary. A reader that abandons pushed
// samples and — an epoch later — asks for one of them is served from the
// stash: the bytes are right (names are immutable), but the new epoch's
// entry for that name was not consumed. The damage is confined to that one
// entry: the first planned reply drops the rest of the stale stash, every
// other entry is delivered normally, and cancelling the epoch reclaims the
// leftover.
func TestReadAheadStaleStash(t *testing.T) {
	fx := startAheadServer(t, 512, 2000)
	reader, other := fx.dial(), fx.dial()
	plan1 := shuffled(fx.names, 8)
	res1, err := other.SubmitEpoch(plan1)
	if err != nil {
		t.Fatal(err)
	}
	i := fx.fillStash(reader, plan1, 0, 3)
	stale := plan1[i] // pushed, never read; the reader walks away
	held := stashLen(reader)
	// Another connection ends that epoch and starts the next; the reader's
	// client cannot know.
	if _, err := other.CancelEpoch(res1.Epoch); err != nil {
		t.Fatal(err)
	}
	plan2 := shuffled(fx.names, 9)
	res2, err := other.SubmitEpoch(plan2)
	if err != nil {
		t.Fatal(err)
	}
	before := fx.stage.Stats().Reads
	fx.mustRead(reader, stale)
	if fx.stage.Stats().Reads != before {
		t.Fatal("the stale name was not served from the stash: the hazard this test pins is gone — update DESIGN.md §19")
	}
	// The first planned reply ends the stale stash.
	var next string
	for _, n := range plan2 {
		if n != stale {
			next = n
			break
		}
	}
	fx.mustRead(reader, next)
	if stashLen(reader) != 0 || reader.StashDrops() != int64(held-1) {
		t.Fatalf("after a planned reply: %d stashed, %d dropped; want 0, %d", stashLen(reader), reader.StashDrops(), held-1)
	}
	// Everything else is read by name only (a connection that never asks
	// for read-ahead), so nothing but a request for it can consume the stale
	// name's entry.
	plain, err := net.Dial("unix", fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, n := range plan2 {
		if n != stale && n != next {
			fx.oldRead(plain, n)
		}
	}
	st := fx.stage.Stats()
	if st.Plan.EntriesPending != 1 || st.Plan.EpochsLive != 1 {
		t.Fatalf("plan = %+v, want exactly the stale name's entry left in a live epoch", st.Plan)
	}
	if removed, err := other.CancelEpoch(res2.Epoch); err != nil || removed != 1 {
		t.Fatalf("CancelEpoch removed %d entries (%v), want the 1 left over", removed, err)
	}
	fx.audit()
}

// oldRead is one read the way the pre-read-ahead client did it: the name and
// nothing behind it, and a reply that must be the one sample and not a byte
// more (the old pooled decoder rejects a frame longer than its payload).
func (fx *aheadFixture) oldRead(conn net.Conn, name string) {
	fx.t.Helper()
	if err := writeFrame(conn, OpRead, 0, appendString(nil, name)); err != nil {
		fx.t.Fatal(err)
	}
	opcode, _, payload, err := readFrame(conn)
	if err != nil || opcode != OpRead || len(payload) < 1 || payload[0] != statusOK {
		fx.t.Fatalf("reply to %s: opcode %d, %d bytes, %v", name, opcode, len(payload), err)
	}
	size, k1 := binary.Uvarint(payload[1:])
	blen, k2 := binary.Uvarint(payload[1+k1:])
	want, _ := fx.mem.Content(name)
	if k1 <= 0 || k2 <= 0 || 1+k1+k2+int(blen) != len(payload) {
		fx.t.Fatalf("reply to %s: head %d+%d + payload %d != frame %d", name, k1, k2, blen, len(payload))
	}
	if size != uint64(len(want)) || !bytes.Equal(payload[1+k1+k2:], want) {
		fx.t.Fatalf("reply to %s: wrong bytes", name)
	}
}

// TestReadAheadOldClientNewServer speaks the pre-read-ahead client's wire
// format at a new server, strided and planned — the pattern that would earn
// pushes — and requires the pre-read-ahead reply every time: no pushes, and
// no location field, as the client never asked for a payload region.
func TestReadAheadOldClientNewServer(t *testing.T) {
	fx := startAheadServer(t, 256, 2000)
	plan := shuffled(fx.names, 6)
	if _, err := fx.stage.SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("unix", fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, name := range plan {
		fx.oldRead(conn, name)
	}
	if st := fx.stage.Stats(); st.ReadAheadSamples != 0 || st.Plan.Delivered != int64(len(plan)) {
		t.Fatalf("pushed %d samples at a client that never asked; delivered %d", st.ReadAheadSamples, st.Plan.Delivered)
	}
	// Nor a payload region: every payload rode the socket inline.
	if st := fx.stage.Stats(); st.RegionPayloads != 0 || st.InlinePayloads != int64(len(plan)) {
		t.Fatalf("%d payloads in a region and %d inline, want 0 and %d", st.RegionPayloads, st.InlinePayloads, len(plan))
	}
	fx.audit()
}

// TestReadAheadNewClientOldServer: a server that predates the tail ignores
// it and answers with the one sample, which the new client takes as an
// unplanned read: nothing stashed, nothing wasted. The same server predates
// the payload region and answers the client's OpRegion as an unknown
// opcode, so the connection stays inline and healthy.
func TestReadAheadNewClientOldServer(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "old.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tails := make(chan aheadTail, 16)
	serve := func(conn net.Conn) {
		defer conn.Close()
		for {
			opcode, trace, payload, err := readFrame(conn)
			if err != nil {
				return
			}
			if opcode == OpRegion {
				_ = writeFrame(conn, opcode, trace, preRegionReply())
				continue
			}
			name, rest, _ := readString(payload) // all an old server reads; the rest it ignores
			tails <- parseAheadTail(rest)
			body := []byte(name + "'s bytes")
			reply := appendSampleHead([]byte{statusOK}, storage.Data{Size: int64(len(body)), Bytes: body})
			_ = writeFrame(conn, opcode, trace, append(reply, body...))
		}
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	for _, pooled := range []bool{true, false} {
		c, err := Dial(sock)
		if err != nil {
			t.Fatal(err)
		}
		pool := mempool.New(mempool.Config{Debug: true})
		if pooled {
			c.SetBufferPool(pool)
		}
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("n%d", i)
			d, err := c.Read(name)
			if err != nil || string(d.Bytes) != name+"'s bytes" || (d.Ref != nil) != pooled {
				t.Fatalf("Read(%s) = %q, %v", name, d.Bytes, err)
			}
			d.Release()
			if tail := <-tails; tail.window != maxAheadWindow || tail.budget != maxAheadBytes || tail.wasted != 0 {
				t.Fatalf("request carried tail %+v", tail)
			}
		}
		if c.StashHits() != 0 || c.StashDrops() != 0 || stashLen(c) != 0 {
			t.Fatal("a plain reply touched the stash")
		}
		if regionOf(c) != nil || c.Broken() {
			t.Fatal("an old server's unknown-opcode answer left a region or a poisoned connection")
		}
		c.Close()
		if got := pool.Stats().Outstanding; got != 0 {
			t.Fatalf("%d leases outstanding", got)
		}
	}
}

// TestReadAheadRoutedReadsGetNoExtras: behind a reader that routes (the
// cluster fabric reports no plan position for the reads it routes) and on
// OpPeerRead the server has nothing to predict from, so replies stay
// single-sample however regular the reader.
func TestReadAheadRoutedReadsGetNoExtras(t *testing.T) {
	fx := startAheadServer(t, 256, 2000)
	routed := readerFunc(func(req core.ReadRequest) (storage.Data, core.PlanPos, error) {
		d, _, err := fx.stage.Read(req)
		return d, core.PlanPos{}, err
	})
	fx.sock = filepath.Join(t.TempDir(), "routed.sock")
	// With tenants, as the fixture's own server: a server without them
	// would attach an arena to the fixture's pool and lend from it, and
	// the audit closes only the fixture's server.
	srv, err := ServeWithConfig(fx.sock, fx.stage, routed, ServeConfig{Tenants: regionTenants(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := fx.dial()
	plan := shuffled(fx.names, 10)
	if _, err := c.SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	for i, name := range plan {
		if i%2 == 0 {
			fx.mustRead(c, name)
			continue
		}
		d, err := c.PeerRead(name)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
	}
	if st := fx.stage.Stats(); st.ReadAheadSamples != 0 || st.Plan.Delivered != int64(len(plan)) || c.StashHits() != 0 {
		t.Fatalf("pushed %d, delivered %d, stash hits %d; want 0, %d, 0", st.ReadAheadSamples, st.Plan.Delivered, c.StashHits(), len(plan))
	}
	fx.audit()
}

// TestReadNamesResolveAtTheStage: a read's name resolves to the stage's
// own string for it, so reads of a name the stage knows allocate nothing,
// and a client looping over names that do not exist grows nothing — the
// connection keeps no names, and reads add none to the stage's table.
func TestReadNamesResolveAtTheStage(t *testing.T) {
	// A plain pool: the debug pool's lease ledger allocates per Get.
	fx := startAheadServerPool(t, 64, 512, mempool.New(mempool.Config{}))
	cs := newConnState(nil)
	request := func(name string) response {
		r := fx.srv.safeHandle(cs, OpRead, 0, appendString(nil, name))
		cs.releaseHeld()
		return r
	}
	for i := 0; i < 20_000; i++ {
		missing := fmt.Sprintf("no/such/%d.bin", i)
		if r := request(missing); r.samples {
			t.Fatal("a missing name was served")
		}
		if _, known := fx.stage.Name([]byte(missing)); known {
			t.Fatalf("reading %s made the stage know it", missing)
		}
	}
	if _, err := fx.stage.SubmitEpoch(fx.names); err != nil {
		t.Fatal(err)
	}
	for _, n := range fx.names {
		if r := request(n); !r.samples {
			t.Fatalf("planned read of %s failed", n)
		}
	}
	req := appendString(nil, fx.names[0])
	if allocs := testing.AllocsPerRun(200, func() {
		fx.srv.safeHandle(cs, OpRead, 0, req)
		cs.releaseHeld()
	}); allocs != 0 {
		t.Fatalf("read of a planned name allocates %.1f/op, want 0", allocs)
	}
	fx.audit()
}
