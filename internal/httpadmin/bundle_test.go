package httpadmin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// bundleFixture wires every optional source into one server so the bundle
// exercises all its sections at once.
func bundleFixture(t *testing.T) (*httptest.Server, *obs.Tracer) {
	t.Helper()
	dp := &epochDP{epochs: []core.EpochStatus{
		{ID: 1, State: core.EpochDone, Total: 8, Enqueued: 8, Delivered: 8},
	}}
	dp.stats.Reads = 100
	dp.stats.Now = 10 * time.Second
	dp.stats.Buffer.ConsumerWait = 6 * time.Second
	dp.stats.Buffer.ConsumerWaitStorage = 3 * time.Second
	dp.stats.Tiering.WaitTime = time.Second
	dp.stats.Tiering.PromoteTime = 500 * time.Millisecond
	dp.stats.Tiering.DecodeTime = 500 * time.Millisecond
	dp.stats.ThrottleWait = 2 * time.Second

	tracer := obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 1})
	for i := 0; i < 5; i++ {
		ctx := tracer.StartTrace()
		tracer.Record(obs.Span{Trace: ctx.Trace, Stage: obs.StageCacheHit,
			Name: fmt.Sprintf("f%d", i), At: time.Duration(i) * time.Millisecond})
	}

	breach := obs.SLOStatus{Tenant: "victim", State: obs.SLOBreach, BurnShort: 6, BurnLong: 2}
	snap := tenancy.Snapshot{Capacity: 500, Tenants: []tenancy.TenantStats{
		{Name: "victim", Weight: 1, SLOBoosted: true, SLO: &breach},
	}}
	cfg := dp.config()
	cfg.Tracer = tracer
	cfg.Tenants = func() tenancy.Snapshot { return snap }
	cfg.Decisions = func() []control.DecisionRecord {
		return []control.DecisionRecord{{Tick: 1, Rule: "slo-breach:victim"}}
	}
	srv := httptest.NewServer(NewWithConfig(dp, cfg))
	t.Cleanup(srv.Close)
	return srv, tracer
}

func getBundle(t *testing.T, url string) Bundle {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var b Bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBundleEndpoint checks the one-shot capture carries every section —
// stats, attribution (with the serving-chain buckets), tenants with SLO
// state, epochs, decisions, and spans — in a single document.
func TestBundleEndpoint(t *testing.T) {
	srv, _ := bundleFixture(t)
	b := getBundle(t, srv.URL+"/debug/bundle")

	if b.CapturedAt != 10*time.Second || b.Stats.Reads != 100 {
		t.Fatalf("stats section = captured %v reads %d", b.CapturedAt, b.Stats.Reads)
	}
	a := b.Attribution
	if a.StorageShare != 0.3 || a.CacheShare != 0.1 || a.TierShare != 0.1 || a.ThrottleShare != 0.2 {
		t.Fatalf("attribution shares = %+v, want 0.3/0.1/0.1/0.2", a)
	}
	sum := a.StorageShare + a.BufferFullShare + a.IPCShare + a.CacheShare +
		a.TierShare + a.ThrottleShare + a.ConsumerShare
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Fatalf("bundle attribution shares sum to %v, want 1", sum)
	}
	if b.Tenants == nil || len(b.Tenants.Tenants) != 1 {
		t.Fatalf("tenants section = %+v", b.Tenants)
	}
	ts := b.Tenants.Tenants[0]
	if !ts.SLOBoosted || ts.SLO == nil || ts.SLO.State != obs.SLOBreach {
		t.Fatalf("tenant SLO state = %+v", ts)
	}
	if len(b.Epochs) != 1 || b.Epochs[0].ID != 1 {
		t.Fatalf("epochs section = %+v", b.Epochs)
	}
	if len(b.Decisions) != 1 || b.Decisions[0].Rule != "slo-breach:victim" {
		t.Fatalf("decisions section = %+v", b.Decisions)
	}
	if len(b.Spans) != 5 || b.SpansDropped != 0 {
		t.Fatalf("spans section = %d spans, %d dropped; want 5, 0", len(b.Spans), b.SpansDropped)
	}
}

// TestBundleSpanLimit checks ?spans=N keeps the newest N (reporting the
// drop) and ?spans=0 omits the section entirely.
func TestBundleSpanLimit(t *testing.T) {
	srv, _ := bundleFixture(t)

	b := getBundle(t, srv.URL+"/debug/bundle?spans=2")
	if len(b.Spans) != 2 || b.SpansDropped != 3 {
		t.Fatalf("spans=2: %d spans, %d dropped; want 2, 3", len(b.Spans), b.SpansDropped)
	}
	// Spans() is time-ordered: the survivors are the newest.
	if b.Spans[0].Name != "f3" || b.Spans[1].Name != "f4" {
		t.Fatalf("kept spans = %q, %q; want newest f3, f4", b.Spans[0].Name, b.Spans[1].Name)
	}

	b = getBundle(t, srv.URL+"/debug/bundle?spans=0")
	if len(b.Spans) != 0 || b.SpansDropped != 0 {
		t.Fatalf("spans=0: %d spans, %d dropped; want none", len(b.Spans), b.SpansDropped)
	}

	resp, err := http.Get(srv.URL + "/debug/bundle?spans=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spans=-1 status = %d, want 400", resp.StatusCode)
	}
}

// TestBundleMinimal checks the endpoint works with no optional source: no
// tracer, tenants, epochs, or decisions — the optional sections are simply
// absent, never an error. A data plane with epoch methods but no epoch
// source in the Config has no epochs section either.
func TestBundleMinimal(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(&epochDP{epochs: []core.EpochStatus{{ID: 1}}}, Config{}))
	defer srv.Close()
	b := getBundle(t, srv.URL+"/debug/bundle")
	if b.Tenants != nil || b.Epochs != nil || b.Decisions != nil || b.Spans != nil {
		t.Fatalf("bare bundle has optional sections: %+v", b)
	}
	if b.Attribution.ConsumerShare != 1 {
		t.Fatalf("idle attribution = %+v, want consumer share 1", b.Attribution)
	}

	resp, err := http.Post(srv.URL+"/debug/bundle", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestMetricsIncludeSLO checks the Prometheus exposition carries the
// per-tenant latency histogram and the prisma_slo_* gauges for tenants
// with an objective.
func TestMetricsIncludeSLO(t *testing.T) {
	breach := obs.SLOStatus{Tenant: "victim", State: obs.SLOBreach,
		BurnShort: 6, BurnLong: 2, BudgetRemaining: 0}
	snap := tenancy.Snapshot{Capacity: 500, Tenants: []tenancy.TenantStats{
		{Name: "quiet", Weight: 1}, // no objective: no slo series
		{Name: "victim", Weight: 1, SLOBoosted: true, SLO: &breach},
	}}
	srv := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{
		Tenants: func() tenancy.Snapshot { return snap },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	if _, err := readAll(body, resp); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE prisma_tenant_read_latency_seconds histogram",
		`prisma_slo_state{tenant="victim"} 2`,
		`prisma_slo_burn_rate{tenant="victim",window="short"} 6`,
		`prisma_slo_burn_rate{tenant="victim",window="long"} 2`,
		`prisma_slo_budget_remaining{tenant="victim"} 0`,
		`prisma_slo_boosted{tenant="victim"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `prisma_slo_state{tenant="quiet"}`) {
		t.Error("tenant without an objective got slo series")
	}
}
