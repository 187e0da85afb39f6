package prisma

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/httpadmin"
)

func TestSLOOptionsValidation(t *testing.T) {
	dir := makeDataset(t, 1)
	withSLO := func(slo SLOOptions) func(*Options) {
		return func(o *Options) {
			o.Tenancy = TenancyOptions{
				Enable:  true,
				Tenants: []TenantSpec{{Name: "a", SLO: &slo}},
			}
		}
	}
	bad := []func(*Options){
		withSLO(SLOOptions{}), // no threshold
		withSLO(SLOOptions{Quantile: 1.5, Threshold: time.Millisecond}),
		withSLO(SLOOptions{Quantile: -0.1, Threshold: time.Millisecond}),
		withSLO(SLOOptions{Threshold: time.Millisecond, ShedBudget: 2}),
		withSLO(SLOOptions{Threshold: time.Millisecond, Window: -time.Second}),
		withSLO(SLOOptions{Threshold: time.Millisecond, WarnBurn: -1}),
		func(o *Options) {
			o.Tenancy = TenancyOptions{Enable: true, SLOBoostFactor: 0.5}
		},
	}
	for i, mutate := range bad {
		opts := Options{Dir: dir}
		mutate(&opts)
		if _, err := Open(opts); err == nil {
			t.Errorf("bad SLO options #%d accepted", i)
		}
	}

	// A valid objective opens fine and surfaces in the tenant snapshot.
	p := open(t, dir, withSLO(SLOOptions{Quantile: 0.95, Threshold: 50 * time.Millisecond}))
	s, err := p.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range s.Tenants {
		if ts.Name == "a" && (!ts.HasSLO || ts.SLOState != "ok") {
			t.Fatalf("tenant a = %+v, want fresh ok objective", ts)
		}
	}
}

// TestSLOBreachEndToEnd drives the full serving-path loop: an unmeetable
// objective makes every read bad, the tenancy tick flips the tenant to
// breach and boosts its weight, and the actuation is audited in the
// controller's decision log — all of it visible in one diagnostic bundle.
func TestSLOBreachEndToEnd(t *testing.T) {
	p, _ := openTenancy(t, 8, func(o *Options) {
		o.Tenancy.TickInterval = 10 * time.Millisecond
		o.Tenancy.Tenants = []TenantSpec{{
			Name: "victim",
			SLO:  &SLOOptions{Quantile: 0.99, Threshold: time.Nanosecond},
		}}
	})
	names := p.ShuffledFileList(1, 0)

	victim := func() TenantStats {
		s, err := p.Tenants()
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range s.Tenants {
			if ts.Name == "victim" {
				return ts
			}
		}
		t.Fatal("victim missing")
		return TenantStats{}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 20; i++ {
			if _, err := p.ReadAs("victim", names[i%len(names)]); err != nil {
				t.Fatal(err)
			}
		}
		vs := victim()
		if vs.SLOState == "breach" {
			if !vs.HasSLO || !vs.SLOBoosted {
				t.Fatalf("breached victim = %+v, want boosted with objective", vs)
			}
			if vs.SLOBurnShort < 4 || vs.SLOBudgetRemaining != 0 {
				t.Fatalf("breached victim burn/budget = %v/%v", vs.SLOBurnShort, vs.SLOBudgetRemaining)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never breached: %+v", vs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The breach actuation must be audited next to the autotuner's own
	// decisions, and the bundle carries the whole story in one document.
	raw, err := p.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	var b httpadmin.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Stats.Reads == 0 || b.Tenants == nil {
		t.Fatalf("bundle missing stats/tenants: reads=%d", b.Stats.Reads)
	}
	audited := false
	for _, d := range b.Decisions {
		if d.Rule == "slo-breach:victim" {
			audited = true
		}
	}
	if !audited {
		t.Fatalf("slo-breach:victim not in decision log: %+v", b.Decisions)
	}
	found := false
	for _, ts := range b.Tenants.Tenants {
		if ts.Name == "victim" && ts.SLO != nil && ts.SLO.State == "breach" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle tenants lack breached victim: %+v", b.Tenants.Tenants)
	}

	// Runtime objective management: clearing drops tracking and the boost;
	// re-setting a meetable objective starts fresh at ok.
	if err := p.ClearTenantSLO("victim"); err != nil {
		t.Fatal(err)
	}
	if vs := victim(); vs.HasSLO || vs.SLOBoosted {
		t.Fatalf("after ClearTenantSLO: %+v", vs)
	}
	if err := p.SetTenantSLO("victim", SLOOptions{Quantile: 0.5, Threshold: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTenantSLO("victim", SLOOptions{}); err == nil {
		t.Fatal("SetTenantSLO accepted an empty objective")
	}
	if err := p.SetTenantSLO("ghost", SLOOptions{Quantile: 0.5, Threshold: time.Minute}); err == nil {
		t.Fatal("SetTenantSLO accepted an unknown tenant")
	}
	if vs := victim(); !vs.HasSLO || vs.SLOState != "ok" {
		t.Fatalf("after SetTenantSLO: %+v", vs)
	}
}

// TestBundleOverSocket checks prisma-ctl's transport: OpGet returns the
// same document shape GET /debug/bundle serves, through the IPC client.
func TestBundleOverSocket(t *testing.T) {
	p, _ := openTenancy(t, 4, func(o *Options) {
		o.TraceSampling = 1
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := p.ShuffledFileList(1, 0)
	for _, n := range names {
		if _, err := c.Read(n); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := c.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	var remote httpadmin.Bundle
	if err := json.Unmarshal(raw, &remote); err != nil {
		t.Fatalf("remote bundle does not decode: %v (%s)", err, raw)
	}
	if remote.Stats.Reads == 0 {
		t.Fatal("remote bundle has zero reads")
	}
	if remote.Tenants == nil {
		t.Fatal("remote bundle lacks the tenants section")
	}
	if len(remote.Spans) == 0 {
		t.Fatal("remote bundle lacks spans despite sampling 1")
	}

	// Same builder serves both transports: the local capture matches in
	// shape (sections, not counters — the clock moved between captures).
	local, err := p.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	var lb httpadmin.Bundle
	if err := json.Unmarshal(local, &lb); err != nil {
		t.Fatal(err)
	}
	if (lb.Tenants == nil) != (remote.Tenants == nil) {
		t.Fatal("local and remote bundles disagree on the tenants section")
	}
	if !strings.Contains(string(raw), "\"attribution\"") {
		t.Fatal("remote bundle lacks the attribution section")
	}
}
