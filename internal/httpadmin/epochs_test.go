package httpadmin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/core"
)

// epochDP is a fakeDP that also implements the epochManager extension.
type epochDP struct {
	fakeDP
	epochs    []core.EpochStatus
	cancelled core.EpochID
}

func (f *epochDP) Epochs() []core.EpochStatus { return f.epochs }

func (f *epochDP) CancelEpoch(id core.EpochID) (int, error) {
	for _, e := range f.epochs {
		if e.ID == id {
			f.cancelled = id
			return e.Total, nil
		}
	}
	return 0, core.ErrUnknownEpoch
}

func TestEpochsEndpoint(t *testing.T) {
	dp := &epochDP{epochs: []core.EpochStatus{
		{ID: 1, State: core.EpochDone, Total: 8, Enqueued: 8, Delivered: 8},
		{ID: 2, State: core.EpochActive, Total: 8, Enqueued: 8, Delivered: 3},
	}}
	srv := httptest.NewServer(New(dp))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /epochs status = %d", resp.StatusCode)
	}
	var eps []core.EpochStatus
	if err := json.NewDecoder(resp.Body).Decode(&eps); err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[1].State != core.EpochActive {
		t.Fatalf("GET /epochs = %+v", eps)
	}

	post, err := http.Post(srv.URL+"/epochs?cancel=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("POST /epochs?cancel=2 status = %d", post.StatusCode)
	}
	var out map[string]uint64
	if err := json.NewDecoder(post.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if dp.cancelled != 2 || out["removed"] != 8 {
		t.Fatalf("cancel applied %d, response %v", dp.cancelled, out)
	}
}

func TestEpochsEndpointValidation(t *testing.T) {
	dp := &epochDP{}
	srv := httptest.NewServer(New(dp))
	t.Cleanup(srv.Close)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/epochs?cancel=abc", http.StatusBadRequest},
		{"/epochs?cancel=0", http.StatusBadRequest},
		{"/epochs", http.StatusBadRequest},        // POST with nothing to apply
		{"/epochs?cancel=9", http.StatusNotFound}, // unknown epoch
	} {
		resp, err := http.Post(srv.URL+tc.url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s status = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

func TestEpochsEndpointNotSupported(t *testing.T) {
	srv, _ := newServer(t) // plain fakeDP: no epoch manager
	resp, err := http.Get(srv.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("GET /epochs status = %d, want 501", resp.StatusCode)
	}
}

func TestMetricsIncludePlanLifecycle(t *testing.T) {
	dp := &epochDP{}
	dp.stats.Plan = core.PlanStats{EpochsSubmitted: 3, EpochsCancelled: 1, Delivered: 40, Dropped: 8}
	dp.stats.ReadAheadSamples, dp.stats.ReadAheadWasted = 32, 5
	srv := httptest.NewServer(New(dp))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sb := new(strings.Builder)
	if _, err := readAll(sb, resp); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"prisma_plan_epochs_submitted_total 3",
		"prisma_plan_epochs_cancelled_total 1",
		"prisma_plan_delivered_total 40",
		"prisma_plan_dropped_total 8",
		"prisma_readahead_samples_total 32",
		"prisma_readahead_wasted_total 5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
