package httpadmin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

func TestAttributionEndpoint(t *testing.T) {
	dp := &fakeDP{}
	dp.stats.Now = 10 * time.Second
	dp.stats.StorageBusy = 4 * time.Second
	dp.stats.Buffer.ConsumerWait = 6 * time.Second
	dp.stats.Buffer.ConsumerWaitStorage = 5 * time.Second
	dp.stats.Buffer.ConsumerWaitBufferFull = time.Second
	srv := httptest.NewServer(NewWithConfig(dp, Config{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/attribution")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a obs.Attribution
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.Consumers != 1 || a.Window != 10*time.Second {
		t.Fatalf("attribution header = %+v", a)
	}
	if a.StorageShare != 0.5 || a.BufferFullShare != 0.1 {
		t.Fatalf("shares = %v/%v, want 0.5/0.1", a.StorageShare, a.BufferFullShare)
	}

	// ?consumers=2 halves the shares.
	resp2, err := http.Get(srv.URL + "/attribution?consumers=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.Consumers != 2 || a.StorageShare != 0.25 {
		t.Fatalf("2-consumer attribution = %+v", a)
	}

	// Bad denominator is rejected.
	resp3, err := http.Get(srv.URL + "/attribution?consumers=0")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("consumers=0 status = %d, want 400", resp3.StatusCode)
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	// Without a source: 501.
	bare := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{}))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no-source status = %d, want 501", resp.StatusCode)
	}

	// With a source: the log round-trips as JSON (empty log is [], not null).
	var recs []control.DecisionRecord
	srv := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{
		Decisions: func() []control.DecisionRecord { return recs },
	}))
	defer srv.Close()

	resp2, err := http.Get(srv.URL + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := readAll(body, resp2); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(body.String()); got != "[]" {
		t.Fatalf("empty log rendered %q, want []", got)
	}

	recs = []control.DecisionRecord{{
		Tick: 3, Rule: "raise-producers",
		Before: control.Tuning{Producers: 1, BufferCapacity: 16},
		After:  control.Tuning{Producers: 2, BufferCapacity: 16},
	}}
	resp3, err := http.Get(srv.URL + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var got []control.DecisionRecord
	if err := json.NewDecoder(resp3.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Rule != "raise-producers" || got[0].After.Producers != 2 {
		t.Fatalf("decisions = %+v", got)
	}
}

func TestMetricsHistogramExposition(t *testing.T) {
	dp := &fakeDP{}
	h := metrics.NewBucketedHistogram(conc.NewReal(), metrics.DefaultLatencyBuckets)
	h.Observe(80 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	h.Observe(30 * time.Millisecond)
	dp.stats.StorageReadLatency = h.Snapshot()
	srv := httptest.NewServer(NewWithConfig(dp, Config{}))
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
		"# TYPE prisma_storage_read_latency_seconds histogram",
		`prisma_storage_read_latency_seconds_bucket{le="0.0001"} 1`,
		`prisma_storage_read_latency_seconds_bucket{le="+Inf"} 3`,
		"prisma_storage_read_latency_seconds_count 3",
		"# TYPE prisma_consumer_wait_latency_seconds histogram",
		"prisma_consumer_wait_storage_seconds_total",
		"prisma_consumer_wait_bufferfull_seconds_total",
		"prisma_storage_busy_seconds_total",
		"prisma_trace_sampling",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Buckets are cumulative: each le count must be <= the next.
	var last int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "prisma_storage_read_latency_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := parseTail(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
}

// parseTail reads the trailing integer of an exposition line.
func parseTail(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	v, err := json.Number(line[i+1:]).Int64()
	*n = v
	return 1, err
}

func TestPprofGating(t *testing.T) {
	off := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{EnablePprof: true}))
	defer on.Close()
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status = %d, want 200", resp2.StatusCode)
	}
	body := new(strings.Builder)
	if _, err := readAll(body, resp2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
