package httpadmin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// tenantServer wires a scriptable tenancy snapshot into the handler.
func tenantServer(t *testing.T, snap *tenancy.Snapshot) *httptest.Server {
	t.Helper()
	cfg := Config{Tenants: func() tenancy.Snapshot { return *snap }}
	srv := httptest.NewServer(NewWithConfig(&fakeDP{}, cfg))
	t.Cleanup(srv.Close)
	return srv
}

func sampleSnapshot() tenancy.Snapshot {
	return tenancy.Snapshot{
		Overloaded: true,
		Capacity:   500,
		Tenants: []tenancy.TenantStats{
			{Name: "default", Weight: 1, GrantedRate: 100, Admitted: 10},
			{Name: "job-a", Weight: 4, GrantedRate: 400, Admitted: 90, Shed: 7, BytesRead: 1 << 20, ByteBudget: 2048, InDebt: true},
		},
	}
}

func TestTenantsJSON(t *testing.T) {
	snap := sampleSnapshot()
	srv := tenantServer(t, &snap)
	resp, err := http.Get(srv.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got tenancy.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Overloaded || got.Capacity != 500 || len(got.Tenants) != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
	if got.Tenants[1].Name != "job-a" || got.Tenants[1].Shed != 7 {
		t.Fatalf("job-a = %+v", got.Tenants[1])
	}
}

func TestTenantsNotEnabled(t *testing.T) {
	srv := httptest.NewServer(NewWithConfig(&fakeDP{}, Config{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestTenantsIsReadOnly: a tenant's knobs are set through /tuning; POST
// /tenants is gone.
func TestTenantsIsReadOnly(t *testing.T) {
	snap := sampleSnapshot()
	srv := tenantServer(t, &snap)
	resp, err := http.Post(srv.URL+"/tenants?name=job-a&weight=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /tenants status = %d, want 405", resp.StatusCode)
	}
}

func TestTenantMetricsExposition(t *testing.T) {
	snap := sampleSnapshot()
	srv := tenantServer(t, &snap)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"prisma_tenant_overloaded 1",
		"prisma_tenant_capacity 500",
		`prisma_tenant_granted_rate{tenant="job-a"} 400`,
		`prisma_tenant_admitted_total{tenant="job-a"} 90`,
		`prisma_tenant_shed_total{tenant="job-a"} 7`,
		`prisma_tenant_bytes_read_total{tenant="job-a"} 1.048576e+06`,
		`prisma_tenant_in_debt{tenant="job-a"} 1`,
		`prisma_tenant_in_debt{tenant="default"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
