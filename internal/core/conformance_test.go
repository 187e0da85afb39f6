package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// readerFixture is one freshly built stage — pooled in-memory backend,
// prefetcher, a real tenancy manager as its gate with a hand-cranked load —
// for one row of the Reader conformance table.
type readerFixture struct {
	stage *core.Stage
	mem   *storage.MemBackend
	pool  *mempool.Pool
	mgr   *tenancy.Manager
	depth int // queue depth the manager's load probe reports
	plan  []string
	val   []string // present in the backend, never planned
}

func newReaderFixture(t *testing.T) *readerFixture {
	t.Helper()
	fx := &readerFixture{mem: storage.NewMemBackend(), pool: mempool.New(mempool.Config{Debug: true})}
	fx.mem.SetBufferPool(fx.pool)
	var samples []dataset.Sample
	for i := 0; i < 24; i++ {
		fx.plan = append(fx.plan, fmt.Sprintf("train/%03d.bin", i))
		fx.mem.AddSeeded(fx.plan[i], 1500+i, int64(i)+1)
		samples = append(samples, dataset.Sample{Name: fx.plan[i], Size: int64(1500 + i)})
	}
	for i := 0; i < 4; i++ {
		fx.val = append(fx.val, fmt.Sprintf("val/%03d.bin", i))
		fx.mem.AddSeeded(fx.val[i], 900+i, int64(-i)-1)
		samples = append(samples, dataset.Sample{Name: fx.val[i], Size: int64(900 + i)})
	}
	env := conc.NewReal()
	stage, err := core.NewStage(env, fx.mem, dataset.MustNew(samples), core.StageConfig{
		InitialProducers: 2, MaxProducers: 2, InitialBufferCapacity: 64, MaxBufferCapacity: 64,
		BufferPool: fx.pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.stage = stage
	// Never Started: the test cranks Tick itself, so overload is entered and
	// left exactly where the request sequence says.
	fx.mgr, err = tenancy.New(env, tenancy.Config{
		Capacity:      1e6,
		MaxQueueDepth: 10,
		Load:          func() tenancy.Load { return tenancy.Load{QueueDepth: fx.depth} },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []tenancy.Spec{{Name: "job-a"}, {Name: "metered", BytesPerSecond: 1}} {
		if err := fx.mgr.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	fx.stage.SetTenantGate(fx.mgr)
	fx.stage.Start()
	t.Cleanup(fx.stage.Close)
	return fx
}

// socketReader reads through a served socket: one connection per tenant,
// each having said Hello as it (the untagged one never does).
type socketReader struct {
	t     *testing.T
	sock  string
	conns map[string]*ipc.Client
}

func (r *socketReader) Read(req core.ReadRequest) (storage.Data, core.PlanPos, error) {
	c, ok := r.conns[req.Tenant]
	if !ok {
		var err error
		if c, err = ipc.Dial(r.sock); err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { c.Close() })
		if req.Tenant != "" {
			if _, err := c.Hello(req.Tenant, ""); err != nil {
				r.t.Fatal(err)
			}
		}
		r.conns[req.Tenant] = c
	}
	d, err := c.Read(req.Name)
	return d, core.PlanPos{}, err
}

// ping sends a frame on every connection, which ends its arena leases.
func (r *socketReader) ping() {
	for _, c := range r.conns {
		if err := c.Ping(); err != nil {
			r.t.Fatal(err)
		}
	}
}

// outcome is what one request of the conformance sequence came to.
type outcome struct {
	Name, Tenant string
	Class        string // "ok", "overloaded" or "failed"
	Intact       bool   // ok and byte-identical to the backend's content
}

// tenantTotals is the slice of a tenant's QoS snapshot every row must agree on.
type tenantTotals struct{ Admitted, Shed, BytesRead, Errors int64 }

// rowResult is everything a row leaves behind that the table compares.
type rowResult struct {
	Outcomes                                             []outcome
	Reads, Hits, Bypasses, Errors, Shed, PlanDelivered   int64
	Tenants                                              map[string]tenantTotals
	PoolOutstanding, PlanPending, PlanClaims, BufferLeft int64
}

// runReaderSequence drives the one request sequence every row gets —
// planned reads untagged and tenant-tagged, a metered tenant driven into
// byte debt and then shed under overload (twice: a shed read stays
// retryable), unplanned reads, missing names — and snapshots what is left.
func runReaderSequence(t *testing.T, fx *readerFixture, r core.Reader) rowResult {
	t.Helper()
	var res rowResult
	read := func(tenant, name string) {
		t.Helper()
		d, _, err := r.Read(core.ReadRequest{Name: name, Tenant: tenant})
		o := outcome{Name: name, Tenant: tenant, Class: "ok"}
		switch {
		case errors.Is(err, tenancy.ErrOverloaded):
			o.Class = "overloaded"
		case err != nil:
			o.Class = "failed"
		default:
			want, _ := fx.mem.Content(name)
			o.Intact = d.Size == int64(len(want)) && bytes.Equal(d.Bytes, want)
			d.Release()
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	if _, err := fx.stage.SubmitEpoch(fx.plan); err != nil {
		t.Fatal(err)
	}
	// Planned reads walk the plan backwards: still one hit each (the buffer
	// holds the whole plan), but no connection ever shows the socket row's
	// read-ahead a forward stride, so no row serves a sample nobody asked for.
	last := len(fx.plan) - 1
	for i := last; i > last-8; i-- {
		read("", fx.plan[i])
	}
	for i := last - 8; i > last-14; i-- {
		read("job-a", fx.plan[i])
	}
	read("metered", fx.plan[last-14]) // admitted; its bytes put the tenant in debt
	fx.depth = 100
	fx.mgr.Tick(100 * time.Millisecond)
	read("metered", fx.plan[last-15]) // in debt under overload: shed
	read("metered", fx.plan[last-15]) // and shed again: nothing was consumed
	read("job-a", fx.plan[last-16])   // within budget: overload does not touch it
	fx.depth = 0
	fx.mgr.Tick(100 * time.Millisecond)
	read("", fx.plan[last-15]) // the shed read's plan entry is still there to hit
	for i := last - 17; i >= 0; i-- {
		read("", fx.plan[i])
	}
	read("", fx.val[0])
	read("job-a", fx.val[1])
	read("", "train/no-such-file.bin")
	read("job-a", "val/no-such-file.bin")
	read("job-a", fx.plan[3]) // already delivered: a bypass now

	st := fx.stage.Stats()
	res.Reads, res.Hits, res.Bypasses, res.Errors, res.Shed = st.Reads, st.Hits, st.Bypasses, st.Errors, st.Shed
	res.PlanDelivered = st.Plan.Delivered
	res.PlanPending, res.PlanClaims, res.BufferLeft = int64(st.Plan.EntriesPending), int64(st.Plan.ClaimsInFlight), int64(st.Buffer.Len)
	// The socket row's connections each hold their last reply's arena
	// leases until their next frame (DESIGN.md §29), which a ping sends;
	// its server drops an inline sample's lease after the reply is on the
	// wire, which the client can see first: give the last one a moment.
	if s, ok := r.(*socketReader); ok {
		s.ping()
	}
	for deadline := time.Now().Add(2 * time.Second); fx.pool.Stats().Outstanding != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	res.PoolOutstanding = fx.pool.Stats().Outstanding
	res.Tenants = map[string]tenantTotals{}
	for _, ts := range fx.mgr.Stats().Tenants {
		res.Tenants[ts.Name] = tenantTotals{ts.Admitted, ts.Shed, ts.BytesRead, ts.Errors}
	}
	return res
}

// TestReaderConformance: a stage, a one-node fabric over a stage, and a
// stage behind a socket are the same core.Reader. The same requests get the
// same bytes and the same typed errors, and leave the same stage counters,
// the same plan ledger and the same per-tenant admission, shed and byte
// totals — in particular the fabric row's default tenant is charged exactly
// like the bare stage's (it was charged nothing before the fabric passed the
// request through intact).
func TestReaderConformance(t *testing.T) {
	rows := []struct {
		name   string
		reader func(t *testing.T, fx *readerFixture) core.Reader
	}{
		{"stage", func(t *testing.T, fx *readerFixture) core.Reader { return fx.stage }},
		{"one-node fabric", func(t *testing.T, fx *readerFixture) core.Reader {
			ring, err := distrib.NewRing([]string{"solo"})
			if err != nil {
				t.Fatal(err)
			}
			fab, err := distrib.NewFabric(conc.NewReal(), distrib.FabricConfig{
				Node: "solo", Ring: ring, Stage: fx.stage, Slow: fx.mem,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fab
		}},
		{"socket", func(t *testing.T, fx *readerFixture) core.Reader {
			sock := filepath.Join(t.TempDir(), "conformance.sock")
			srv, err := ipc.ServeWithConfig(sock, fx.stage, nil, ipc.ServeConfig{Tenants: fx.mgr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return &socketReader{t: t, sock: sock, conns: map[string]*ipc.Client{}}
		}},
	}
	var want rowResult
	for i, row := range rows {
		fx := newReaderFixture(t)
		got := runReaderSequence(t, fx, row.reader(t, fx))
		if i == 0 {
			want = got
			// The reference row itself: every payload intact, the two sheds
			// and two failures where the sequence put them, nothing leaked.
			classes := map[string]int{}
			for _, o := range got.Outcomes {
				classes[o.Class]++
				if o.Class == "ok" && !o.Intact {
					t.Errorf("stage: %s for %q came back damaged", o.Name, o.Tenant)
				}
			}
			if classes["overloaded"] != 2 || classes["failed"] != 2 {
				t.Fatalf("stage: outcome classes %v, want 2 overloaded and 2 failed", classes)
			}
			if got.PlanDelivered != int64(len(fx.plan)) || got.Shed != 2 || got.Bypasses != 5 || got.Errors != 2 {
				t.Fatalf("stage: delivered %d shed %d bypasses %d errors %d, want %d 2 5 2", got.PlanDelivered, got.Shed, got.Bypasses, got.Errors, len(fx.plan))
			}
			if got.PoolOutstanding != 0 || got.PlanPending != 0 || got.PlanClaims != 0 || got.BufferLeft != 0 {
				t.Fatalf("stage: left behind %+v", got)
			}
			if m := got.Tenants["metered"]; m.Admitted != 1 || m.Shed != 2 {
				t.Fatalf("stage: metered tenant %+v, want 1 admitted and 2 shed", m)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from the bare stage:\n got %+v\nwant %+v", row.name, got, want)
		}
	}
}
