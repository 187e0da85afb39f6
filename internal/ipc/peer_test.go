package ipc

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Without a fabric in front, OpPeerRead serves from the local
// stage — a planned sample comes back intact and is consumed from the
// evict-on-read buffer exactly like a local Read.
func TestPeerReadFallsBackToLocalStage(t *testing.T) {
	_, stage, names, sock := startServer(t, 4)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		d, err := c.PeerRead(n)
		if err != nil {
			t.Fatalf("PeerRead(%s): %v", n, err)
		}
		want := int64(1024 + i)
		if d.Size != want || int64(len(d.Bytes)) != want {
			t.Fatalf("PeerRead(%s): size %d, %d bytes, want %d", n, d.Size, len(d.Bytes), want)
		}
	}
	if hits := stage.Stats().Hits; hits != int64(len(names)) {
		t.Fatalf("stage hits = %d, want %d (peer reads consume the buffer)", hits, len(names))
	}
}

// readerFunc adapts a function to core.Reader — the test stand-in for the
// cluster fabric.
type readerFunc func(core.ReadRequest) (storage.Data, core.PlanPos, error)

func (f readerFunc) Read(req core.ReadRequest) (storage.Data, core.PlanPos, error) { return f(req) }

// A server built over a reader serves both read opcodes through it: the
// reader sees the requested name, the connection's identity, the frame's
// trace context and — for OpPeerRead — the Peer mark, and its payload
// travels back to the requester byte-for-byte.
func TestReaderServesBothReadOpcodes(t *testing.T) {
	_, stage, _, _ := startServer(t, 1)
	var mu sync.Mutex
	var served []core.ReadRequest
	sock := filepath.Join(t.TempDir(), "routed.sock")
	srv, err := Serve(sock, stage, readerFunc(func(req core.ReadRequest) (storage.Data, core.PlanPos, error) {
		mu.Lock()
		served = append(served, req)
		mu.Unlock()
		if req.Name == "missing.bin" {
			return storage.Data{}, core.PlanPos{}, errors.New("not owned here")
		}
		payload := []byte("fabric:" + req.Name)
		return storage.Data{Name: req.Name, Size: int64(len(payload)), Bytes: payload}, core.PlanPos{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("job-a", ""); err != nil {
		t.Fatal(err)
	}

	d, err := c.PeerRead("sample-7.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Bytes) != "fabric:sample-7.jpg" {
		t.Fatalf("payload = %q", d.Bytes)
	}

	// Reader errors surface as typed remote errors and do NOT poison the
	// connection: the next call reuses it.
	_, err = c.PeerRead("missing.bin")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if d, err := c.Read("sample-8.jpg"); err != nil || string(d.Bytes) != "fabric:sample-8.jpg" {
		t.Fatalf("connection unusable after remote error: %q, %v", d.Bytes, err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []core.ReadRequest{
		{Name: "sample-7.jpg", Tenant: "job-a", Peer: true},
		{Name: "missing.bin", Tenant: "job-a", Peer: true},
		{Name: "sample-8.jpg", Tenant: "job-a"},
	}
	if !reflect.DeepEqual(served, want) {
		t.Fatalf("reader saw %+v, want %+v", served, want)
	}
}

// HelloRole's optional third field: old two-string hellos still resolve,
// and a "peer" hello marks the connection without changing the resolved
// identity on a single-tenant server.
func TestHelloRoleBackwardCompatible(t *testing.T) {
	_, _, names, sock := startServer(t, 2)

	legacy, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	resolved, err := legacy.Hello("", "")
	if err != nil {
		t.Fatal(err)
	}
	if resolved != tenancy.DefaultTenant {
		t.Fatalf("legacy hello resolved %q, want %q", resolved, tenancy.DefaultTenant)
	}

	peer, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	resolved, err = peer.HelloRole("", "", "peer")
	if err != nil {
		t.Fatal(err)
	}
	if resolved != tenancy.DefaultTenant {
		t.Fatalf("peer hello resolved %q, want %q", resolved, tenancy.DefaultTenant)
	}
	// The role does not gate data-path use: the peer connection still reads.
	if _, err := peer.Read(names[0]); err != nil {
		t.Fatal(err)
	}
}

// helloPayload encodes two strings for a roleless hello (wire-compatible
// with pre-cluster servers) and three when a role is declared.
func TestHelloPayloadEncoding(t *testing.T) {
	two := helloPayload("alice", "s3cret", "")
	name, rest, err := readString(two)
	if err != nil || name != "alice" {
		t.Fatalf("name = %q, %v", name, err)
	}
	secret, rest, err := readString(rest)
	if err != nil || secret != "s3cret" {
		t.Fatalf("secret = %q, %v", secret, err)
	}
	if len(rest) != 0 {
		t.Fatalf("roleless hello has %d trailing bytes", len(rest))
	}

	three := helloPayload("alice", "s3cret", "peer")
	_, rest, _ = readString(three)
	_, rest, _ = readString(rest)
	role, rest, err := readString(rest)
	if err != nil || role != "peer" {
		t.Fatalf("role = %q, %v", role, err)
	}
	if len(rest) != 0 {
		t.Fatalf("role hello has %d trailing bytes", len(rest))
	}
}
