package httpadmin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// fakeDP is a scriptable data plane.
type fakeDP struct {
	stats     core.StageStats
	producers int
	buffer    int
	sampling  float64
}

func (f *fakeDP) Stats() core.StageStats     { return f.stats }
func (f *fakeDP) SetProducers(n int)         { f.producers = n }
func (f *fakeDP) SetBufferCapacity(n int)    { f.buffer = n }
func (f *fakeDP) SetTraceSampling(p float64) { f.sampling = p }

func newServer(t *testing.T) (*httptest.Server, *fakeDP) {
	t.Helper()
	dp := &fakeDP{}
	dp.stats.Reads = 100
	dp.stats.Hits = 90
	dp.stats.TargetProducers = 4
	dp.stats.Buffer.Capacity = 64
	srv := httptest.NewServer(NewWithConfig(dp, Config{Control: (&control.Table{Stage: dp}).Apply}))
	t.Cleanup(srv.Close)
	return srv, dp
}

func TestHealthz(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestStatsJSON(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got core.StageStats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Reads != 100 || got.Hits != 90 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestStatsRejectsPost(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Post(srv.URL+"/stats", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, _ := newServer(t)
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
		"# TYPE prisma_reads_total counter",
		"prisma_reads_total 100",
		"prisma_buffer_hits_total 90",
		"# TYPE prisma_producers gauge",
		"prisma_producers 4",
		"prisma_buffer_capacity 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func readAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestTuningApplies: /tuning hands its pairs to the control table. Every
// key and value the table accepts or refuses, over every transport, is
// TestControlTransportsAgree's (root package).
func TestTuningApplies(t *testing.T) {
	srv, dp := newServer(t)
	resp, err := http.Post(srv.URL+"/tuning?producers=7&buffer=128&sampling=0.25", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if dp.producers != 7 || dp.buffer != 128 || dp.sampling != 0.25 {
		t.Fatalf("applied = %d/%d/%v, want 7/128/0.25", dp.producers, dp.buffer, dp.sampling)
	}
}

// TestTuningValidation: what /tuning itself answers — 400 for a request the
// table refuses (an empty one included), 405 for anything but POST, 501
// without a control table.
func TestTuningValidation(t *testing.T) {
	srv, dp := newServer(t)
	for _, path := range []string{"/tuning", "/tuning?producers=4&buffer=0"} {
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
	if dp.producers != 0 || dp.buffer != 0 {
		t.Fatalf("bad requests mutated the stage: %+v", dp)
	}
	resp, err := http.Get(srv.URL + "/tuning")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /tuning status = %d, want 405", resp.StatusCode)
	}
	plain := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{}))
	defer plain.Close()
	resp, err = http.Post(plain.URL+"/tuning?sampling=0.5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no control table: status = %d, want 501", resp.StatusCode)
	}
}

// TestMetricsRenderTheWholeHierarchy: the memory hierarchy's families are
// rendered whichever budgets it has — the shared cache's recency window
// alone, the tier's alone, or both — and none without a hierarchy, while
// prisma_tiering_enabled stays 1 only with a tier.
func TestMetricsRenderTheWholeHierarchy(t *testing.T) {
	families := []string{
		"prisma_tiering_fast_hits_total", "prisma_tiering_slow_reads_total", "prisma_tiering_promotions_total",
		"prisma_tiering_evictions_total", "prisma_tiering_declined_total", "prisma_tiering_prefetch_promotions_total",
		"prisma_tiering_prefetch_skips_total", "prisma_tiering_used_bytes", "prisma_tiering_logical_bytes",
		"prisma_tiering_capacity_bytes", "prisma_tiering_residents", "prisma_tiering_encoded_residents", "prisma_tiering_tracked_names",
		"prisma_tiering_access_decays_total", "prisma_tiering_window_bytes", "prisma_tiering_joined_reads_total",
		"prisma_tiering_joined_wait_seconds_total", "prisma_tiering_promote_seconds_total", "prisma_tiering_decode_seconds_total",
	}
	for _, c := range []struct {
		name             string
		window, capacity int64
		hierarchy        bool
		tier             string
	}{
		{"none", 0, 0, false, "0"},
		{"cache", 1 << 20, 1 << 20, true, "0"},
		{"tier", 0, 4 << 20, true, "1"},
		{"both", 1 << 20, 5 << 20, true, "1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dp := &fakeDP{}
			dp.stats.TieringEnabled = c.hierarchy
			dp.stats.Tiering = tiering.Stats{
				Capacity: c.capacity, Window: c.window, Waits: 3, WaitTime: 2 * time.Second,
				PromoteTime: time.Second, DecodeTime: 500 * time.Millisecond,
			}
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
			if !strings.Contains(text, "\nprisma_tiering_enabled "+c.tier+"\n") {
				t.Errorf("prisma_tiering_enabled is not %s:\n%s", c.tier, text)
			}
			for _, f := range families {
				if got := strings.Contains(text, "# TYPE "+f+" "); got != c.hierarchy {
					t.Errorf("family %s rendered = %v, want %v", f, got, c.hierarchy)
				}
			}
			if !c.hierarchy {
				return
			}
			for _, want := range []string{
				fmt.Sprintf("\nprisma_tiering_window_bytes %g\n", float64(c.window)),
				fmt.Sprintf("\nprisma_tiering_capacity_bytes %g\n", float64(c.capacity)),
				"\nprisma_tiering_joined_reads_total 3\n",
				"\nprisma_tiering_joined_wait_seconds_total 2\n",
				"\nprisma_tiering_promote_seconds_total 1\n",
				"\nprisma_tiering_decode_seconds_total 0.5\n",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("metrics missing %q", strings.TrimSpace(want))
				}
			}
		})
	}
}
