package ipc

import (
	"errors"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// severConnsForTest force-closes every live server-side connection,
// simulating a server-side drop so client redial paths can be exercised.
func (s *Server) severConnsForTest() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// tenantFixture wires a tenancy manager (with an injectable load) into a
// served stage: the server authenticates hellos against it and the stage
// consults it per read.
func tenantFixture(t *testing.T, nFiles int, cfg tenancy.Config) (*Server, *tenancy.Manager, []string, string) {
	t.Helper()
	srv, stage, names, sock := startServer(t, nFiles)
	if cfg.Capacity == 0 {
		cfg.Capacity = 10_000
	}
	mgr, err := tenancy.New(conc.NewReal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stage.SetTenantGate(mgr)
	srv.SetTenantManager(mgr)
	attachSurface(srv, stage, mgr)
	return srv, mgr, names, sock
}

func TestHelloEstablishesTenant(t *testing.T) {
	_, mgr, names, sock := tenantFixture(t, 4, tenancy.Config{})
	if err := mgr.Register(tenancy.Spec{Name: "job-a"}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Untagged reads land on the default tenant.
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	// Hello switches the connection's identity for all later reads.
	resolved, err := c.Hello("job-a", "")
	if err != nil || resolved != "job-a" {
		t.Fatalf("Hello = %q, %v", resolved, err)
	}
	if _, err := c.Read(names[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(names[2]); err != nil {
		t.Fatal(err)
	}

	var def, jobA tenancy.TenantStats
	for _, ts := range mgr.Stats().Tenants {
		switch ts.Name {
		case tenancy.DefaultTenant:
			def = ts
		case "job-a":
			jobA = ts
		}
	}
	if def.Admitted != 1 {
		t.Fatalf("default admitted = %d, want 1", def.Admitted)
	}
	if jobA.Admitted != 2 {
		t.Fatalf("job-a admitted = %d, want 2", jobA.Admitted)
	}
	if jobA.BytesRead == 0 {
		t.Fatal("job-a bytes not attributed")
	}
}

func TestHelloAuthRejected(t *testing.T) {
	_, mgr, _, sock := tenantFixture(t, 1, tenancy.Config{})
	if err := mgr.Register(tenancy.Spec{Name: "secure", Secret: "pw"}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("secure", "wrong"); err == nil {
		t.Fatal("bad secret accepted over the wire")
	}
	var remote *RemoteError
	if _, err := c.Hello("secure", "nope"); !errors.As(err, &remote) {
		t.Fatalf("auth failure = %T, want RemoteError", err)
	}
	// The failed hello must not have assumed the identity.
	if resolved, err := c.Hello("", ""); err != nil || resolved != tenancy.DefaultTenant {
		t.Fatalf("fallback hello = %q, %v", resolved, err)
	}
}

func TestHelloWithoutManagerAccepted(t *testing.T) {
	_, _, names, sock := startServer(t, 1)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resolved, err := c.Hello("anyone", ""); err != nil || resolved != "anyone" {
		t.Fatalf("single-tenant hello = %q, %v", resolved, err)
	}
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadShedsTypedOverWire drives the server into overload and
// asserts a shed read surfaces client-side as a typed, retryable
// OverloadError with the server's retry-after hint — never a hang, a
// silent drop, or a poisoned connection.
func TestOverloadShedsTypedOverWire(t *testing.T) {
	depth := 0
	_, mgr, names, sock := tenantFixture(t, 4, tenancy.Config{
		Capacity:      1000,
		Burst:         2,
		MaxQueueDepth: 10,
		MaxRetryAfter: time.Second,
		Load:          func() tenancy.Load { return tenancy.Load{QueueDepth: depth} },
	})
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	depth = 100
	mgr.Tick(100 * time.Millisecond)

	var oe *tenancy.OverloadError
	shed := false
	for i := 0; i < 20; i++ {
		_, err := c.Read(names[i%len(names)])
		if err == nil {
			continue
		}
		if !errors.Is(err, tenancy.ErrOverloaded) {
			t.Fatalf("read error %v, want ErrOverloaded", err)
		}
		if !errors.As(err, &oe) {
			t.Fatalf("read error %T does not unwrap to *OverloadError", err)
		}
		shed = true
		break
	}
	if !shed {
		t.Fatal("server never shed with burst 2 and 20 rapid reads")
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > time.Second {
		t.Fatalf("retry-after %v outside (0, 1s]", oe.RetryAfter)
	}
	if c.Broken() {
		t.Fatal("typed shed poisoned the connection")
	}

	// Recovery: load subsides and the same connection reads again.
	depth = 0
	mgr.Tick(100 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Read(names[0]); err == nil {
			break
		} else if !errors.Is(err, tenancy.ErrOverloaded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery after overload subsided")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverloadRetryHonored: with OverloadRetries configured, the client
// waits out the hint and resends, so the caller sees a slow success
// instead of an error.
func TestOverloadRetryHonored(t *testing.T) {
	depth := 0
	_, mgr, names, sock := tenantFixture(t, 2, tenancy.Config{
		Capacity:      1000,
		Burst:         1,
		MaxQueueDepth: 10,
		MaxRetryAfter: 500 * time.Millisecond,
		Load:          func() tenancy.Load { return tenancy.Load{QueueDepth: depth} },
	})
	c, err := DialWithConfig(sock, DialConfig{OverloadRetries: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Establish demand so the arbiter grants a real rate (an idle tenant
	// drops to the 1 req/s no-starvation floor, which would make the
	// retry-after hints pointlessly long for a test).
	for i := 0; i < 30; i++ {
		if _, err := c.Read(names[i%len(names)]); err != nil {
			t.Fatal(err)
		}
	}
	depth = 100
	mgr.Tick(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		if _, err := c.Read(names[i%len(names)]); err != nil {
			t.Fatalf("read %d with overload retries = %v, want success after backoff", i, err)
		}
	}
}

func TestTenantsAndSetTenantOverWire(t *testing.T) {
	_, _, _, sock := tenantFixture(t, 1, tenancy.Config{Capacity: 500})
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("job-b", ""); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, c).Tenants
	if snap == nil || snap.Capacity != 500 || len(snap.Tenants) != 2 {
		t.Fatalf("snapshot = %+v, want capacity 500 and 2 tenants", snap)
	}
	if err := c.Control("tenant.job-b.weight=4", "tenant.job-b.bytes=1048576"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range snapshot(t, c).Tenants.Tenants {
		if ts.Name == "job-b" {
			found = true
			if ts.Weight != 4 || ts.ByteBudget != 1<<20 {
				t.Fatalf("job-b after control = %+v", ts)
			}
		}
	}
	if !found {
		t.Fatal("job-b missing from snapshot")
	}
	if err := c.Control("tenant.ghost.weight=2"); err == nil {
		t.Fatal("control of an unknown tenant accepted")
	}
}

// TestHelloReplayedAfterRedial: a poisoned connection redials
// transparently, and the replayed hello restores the tenant identity so
// post-reconnect reads are still attributed correctly.
func TestHelloReplayedAfterRedial(t *testing.T) {
	srv, mgr, names, sock := tenantFixture(t, 2, tenancy.Config{})
	c, err := DialWithConfig(sock, DialConfig{MaxReconnects: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("job-c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}

	// Sever every live server-side connection; the client's next call
	// poisons and redials.
	srv.severConnsForTest()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never redialed")
	}
	if _, err := c.Read(names[1]); err != nil {
		t.Fatal(err)
	}
	for _, ts := range mgr.Stats().Tenants {
		if ts.Name == "job-c" && ts.Admitted != 2 {
			t.Fatalf("job-c admitted = %d, want 2 (identity lost on redial?)", ts.Admitted)
		}
	}
}
