package prisma

import (
	"os"
	"path/filepath"
	"testing"
)

// openTenancy builds a tenancy-enabled instance with a shared cache over a
// small dataset.
func openTenancy(t *testing.T, n int, mutate func(*Options)) (*Prisma, string) {
	t.Helper()
	dir := makeDataset(t, n)
	p := open(t, dir, func(o *Options) {
		o.Tenancy = TenancyOptions{
			Enable:           true,
			Capacity:         50_000,
			SharedCacheBytes: 1 << 20,
		}
		if mutate != nil {
			mutate(o)
		}
	})
	return p, dir
}

func TestTenancyOptionsValidation(t *testing.T) {
	dir := makeDataset(t, 1)
	bad := []func(*Options){
		func(o *Options) { o.Tenancy = TenancyOptions{Enable: true, Capacity: -1} },
		func(o *Options) { o.Tenancy = TenancyOptions{Enable: true, MaxQueueDepth: -2} },
		func(o *Options) { o.Tenancy = TenancyOptions{Enable: true, SharedCacheBytes: -1} },
		func(o *Options) {
			o.Tenancy = TenancyOptions{Enable: true, Tenants: []TenantSpec{{Name: ""}}}
		},
	}
	for i, mutate := range bad {
		opts := Options{Dir: dir}
		mutate(&opts)
		if _, err := Open(opts); err == nil {
			t.Errorf("bad tenancy options #%d accepted", i)
		}
	}
}

func TestTenancyDisabledAPI(t *testing.T) {
	dir := makeDataset(t, 1)
	p := open(t, dir, nil)
	if _, err := p.Tenants(); err == nil {
		t.Error("Tenants on a non-tenant instance succeeded")
	}
	if err := p.RegisterTenant(TenantSpec{Name: "x"}); err == nil {
		t.Error("RegisterTenant on a non-tenant instance succeeded")
	}
	if err := p.Control("tenant.x.weight=2"); err == nil {
		t.Error("a tenant setting on a non-tenant instance succeeded")
	}
	// The sentinel must be usable for errors.Is even without tenancy on.
	if ErrOverloaded == nil {
		t.Fatal("ErrOverloaded is nil")
	}
}

func TestTenancyInProcessAttribution(t *testing.T) {
	p, _ := openTenancy(t, 8, func(o *Options) {
		o.Tenancy.Tenants = []TenantSpec{{Name: "job-a", Weight: 2}}
	})
	names := p.ShuffledFileList(1, 0)

	// Default-tenant read plus two attributed reads.
	if _, err := p.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		blob, err := p.ReadAs("job-a", names[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) == 0 {
			t.Fatal("empty payload")
		}
	}
	s, err := p.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	var def, jobA TenantStats
	for _, ts := range s.Tenants {
		switch ts.Name {
		case "default":
			def = ts
		case "job-a":
			jobA = ts
		}
	}
	if def.Admitted != 1 || jobA.Admitted != 2 {
		t.Fatalf("admitted default=%d job-a=%d, want 1 and 2", def.Admitted, jobA.Admitted)
	}
	if jobA.Weight != 2 || jobA.BytesRead == 0 {
		t.Fatalf("job-a = %+v", jobA)
	}

	// Runtime knob adjustment is visible in the next snapshot.
	if err := p.Control("tenant.job-a.weight=4", "tenant.job-a.bytes=1048576"); err != nil {
		t.Fatal(err)
	}
	s, _ = p.Tenants()
	for _, ts := range s.Tenants {
		if ts.Name == "job-a" && (ts.Weight != 4 || ts.ByteBudget != 1<<20) {
			t.Fatalf("job-a after Control = %+v", ts)
		}
	}

	if err := p.RegisterTenant(TenantSpec{Name: "job-b"}); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterTenant(TenantSpec{Name: "job-b"}); err == nil {
		t.Fatal("duplicate RegisterTenant accepted")
	}
	if err := p.UnregisterTenant("job-b"); err != nil {
		t.Fatal(err)
	}
	if err := p.UnregisterTenant("default"); err == nil {
		t.Fatal("default tenant unregistered")
	}
}

func TestTenancySharedCacheDedupes(t *testing.T) {
	p, _ := openTenancy(t, 4, nil)
	names := p.ShuffledFileList(2, 0)

	// Unplanned reads bypass the prefetch buffer and hit the backend chain;
	// the second read of the same file must come from the shared cache.
	for i := 0; i < 3; i++ {
		if _, err := p.ReadAs("job-a", names[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReadAs("job-b", names[0]); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if !s.CacheEnabled {
		t.Fatal("cache not reported enabled")
	}
	if s.CacheDeviceReads != 1 {
		t.Fatalf("device reads = %d, want 1 (co-located tenants multiplied backend load)", s.CacheDeviceReads)
	}
	if s.CacheHits < 4 {
		t.Fatalf("cache hits = %d, want >= 4", s.CacheHits)
	}
	if s.CacheUsedBytes == 0 || s.CacheResidents != 1 {
		t.Fatalf("cache stats = %+v", s)
	}
}

func TestTenancyOverSocket(t *testing.T) {
	p, _ := openTenancy(t, 6, nil)
	sock := filepath.Join(shortTempDir(t), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	names := p.ShuffledFileList(3, 0)

	c, err := DialWithOptions(sock, DialOptions{Tenant: "job-x", OverloadRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Read(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range snap.Tenants {
		if ts.Name == "job-x" {
			found = true
			if ts.Admitted != 3 || ts.BytesRead == 0 {
				t.Fatalf("job-x = %+v", ts)
			}
		}
	}
	if !found {
		t.Fatal("dial-time hello did not register job-x")
	}
	if err := c.Control("tenant.job-x.weight=3"); err != nil {
		t.Fatal(err)
	}
	snap, _ = c.Tenants()
	for _, ts := range snap.Tenants {
		if ts.Name == "job-x" && ts.Weight != 3 {
			t.Fatalf("job-x weight = %g after Control", ts.Weight)
		}
	}

	// A second connection without a hello lands on the default tenant.
	c2, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	snap, _ = c.Tenants()
	for _, ts := range snap.Tenants {
		if ts.Name == "default" && ts.Admitted == 0 {
			t.Fatal("untagged read not attributed to the default tenant")
		}
	}
}

func TestTenancyHelloAuthOverSocket(t *testing.T) {
	p, _ := openTenancy(t, 1, func(o *Options) {
		o.Tenancy.Tenants = []TenantSpec{{Name: "secure", Secret: "pw"}}
	})
	sock := filepath.Join(shortTempDir(t), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	if _, err := DialWithOptions(sock, DialOptions{Tenant: "secure", Secret: "wrong"}); err == nil {
		t.Fatal("bad secret accepted at dial time")
	}
	c, err := DialWithOptions(sock, DialOptions{Tenant: "secure", Secret: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// shortTempDir works around the 104-byte UNIX socket path limit on some
// platforms: t.TempDir can exceed it under deeply nested test names.
func shortTempDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "prisma")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}
