package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
)

// startPooledServer is startServer with a debug-mode buffer pool threaded
// through backend and stage, returning the pool for leak audits.
func startPooledServer(t *testing.T, nFiles int) (*mempool.Pool, []string, string, string) {
	t.Helper()
	dir := t.TempDir()
	samples := make([]dataset.Sample, nFiles)
	names := make([]string, nFiles)
	for i := range samples {
		samples[i] = dataset.Sample{Name: "p" + string(rune('a'+i%26)) + ".bin", Size: int64(2048 + 61*i)}
		names[i] = samples[i].Name
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 43); err != nil {
		t.Fatal(err)
	}
	env := conc.NewReal()
	backend := storagetest.OpenDir(t, dir)
	pool := mempool.New(mempool.Config{Debug: true})
	backend.SetBufferPool(pool)
	pf, err := core.NewPrefetcher(env, backend, man, core.PrefetcherConfig{
		InitialProducers: 2, MaxProducers: 8, InitialBufferCapacity: 8, MaxBufferCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	stage := core.NewStage(env, backend, pf)
	stage.SetBufferPool(pool)
	pf.Start()
	sock := filepath.Join(t.TempDir(), "pooled.sock")
	srv, err := Serve(sock, stage, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		stage.Close()
	})
	return pool, names, sock, dir
}

// TestPooledReadRoundTrip drives planned and bypass reads through pooled
// server and client: delivered bytes must match the on-disk files exactly,
// every response must carry a pooled lease, and after the consumer releases
// them both pools must audit clean (zero outstanding, empty leak ledger).
func TestPooledReadRoundTrip(t *testing.T) {
	serverPool, names, sock, dir := startPooledServer(t, 8)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientPool := mempool.New(mempool.Config{Debug: true})
	c.SetBufferPool(clientPool)

	if err := c.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		d, err := c.Read(n)
		if err != nil {
			t.Fatalf("Read(%s): %v", n, err)
		}
		if d.Ref == nil {
			t.Fatalf("Read(%s): no pooled lease on response", n)
		}
		want, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Bytes, want) {
			t.Fatalf("Read(%s): delivered bytes differ from file content", n)
		}
		d.Release()
	}

	if got := clientPool.Stats().Outstanding; got != 0 {
		t.Fatalf("client pool: %d outstanding leases after release\n%s",
			got, mempool.FormatLeaks(clientPool.Leaks()))
	}
	// The server's leases end when responses hit the socket; poll briefly
	// because the last write completes asynchronously to the client's read.
	deadline := time.Now().Add(2 * time.Second)
	for serverPool.Stats().Outstanding != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server pool: %d outstanding leases\n%s",
				serverPool.Stats().Outstanding, mempool.FormatLeaks(serverPool.Leaks()))
		}
		time.Sleep(time.Millisecond)
	}
	if got := clientPool.Stats().Gets; got != int64(len(names)) {
		t.Fatalf("client pool served %d leases, want %d (audit must not be vacuous)", got, len(names))
	}
}

// truncatingReadServer answers its first OpRead with a correct frame header
// and half the payload, then hangs up; subsequent connections answer reads
// correctly with deterministic content. It exercises the pooled client's
// broken-mid-payload path.
type truncatingReadServer struct {
	listener net.Listener
	payload  []byte
	conns    int
}

func startTruncatingReadServer(t *testing.T, payload []byte) (*truncatingReadServer, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "trunc.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ts := &truncatingReadServer{listener: l, payload: payload}
	go ts.acceptLoop()
	t.Cleanup(func() { l.Close() })
	return ts, sock
}

func (ts *truncatingReadServer) acceptLoop() {
	for {
		conn, err := ts.listener.Accept()
		if err != nil {
			return
		}
		ts.conns++
		go ts.serve(conn, ts.conns == 1)
	}
}

func (ts *truncatingReadServer) serve(conn net.Conn, truncate bool) {
	defer conn.Close()
	for {
		opcode, trace, _, err := readFrame(conn)
		if err != nil {
			return
		}
		if opcode == OpRegion {
			_ = writeFrame(conn, opcode, trace, preRegionReply())
			continue
		}
		if opcode != OpRead {
			_ = writeFrame(conn, opcode, trace, okResponse(nil))
			continue
		}
		head := []byte{statusOK}
		head = binary.AppendUvarint(head, uint64(len(ts.payload)))
		head = binary.AppendUvarint(head, uint64(len(ts.payload)))
		full := append(head, ts.payload...)
		if !truncate {
			_ = writeFrame(conn, opcode, trace, full)
			continue
		}
		// Correct frame header, then only half the payload: the client's
		// pooled decode dies inside the payload read.
		_, _ = conn.Write(appendFrameHeader(nil, opcode, trace, len(full)))
		_, _ = conn.Write(full[:len(full)/2])
		return
	}
}

// TestPooledReadBrokenMidPayload breaks the stream halfway through a pooled
// payload: the client must surface ErrConnBroken, release the half-filled
// lease (zero outstanding — no leak), and the next read on the redialed
// connection must deliver the complete, correct payload, never a recycled
// or half-stale buffer.
func TestPooledReadBrokenMidPayload(t *testing.T) {
	// Larger than the client's read buffer, so the payload is received
	// straight into its lease and the stream breaks with the lease held (a
	// reply that fits the buffer is received whole before any lease exists).
	payload := make([]byte, 4*clientReadBuf)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	_, sock := startTruncatingReadServer(t, payload)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pool := mempool.New(mempool.Config{Debug: true})
	c.SetBufferPool(pool)

	_, err = c.Read("sample.bin")
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("Read over truncated payload = %v, want ErrConnBroken", err)
	}
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("half-received lease leaked: %d outstanding\n%s", got, mempool.FormatLeaks(pool.Leaks()))
	}
	if !c.Broken() {
		t.Fatal("connection not poisoned after mid-payload failure")
	}

	d, err := c.Read("sample.bin")
	if err != nil {
		t.Fatalf("Read after redial: %v", err)
	}
	if d.Ref == nil {
		t.Fatal("redialed read returned no pooled lease")
	}
	if !bytes.Equal(d.Bytes, payload) {
		t.Fatal("redialed read delivered wrong bytes (stale or recycled buffer?)")
	}
	d.Release()
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("%d outstanding leases after release", got)
	}
	// In debug mode the aborted lease was poisoned on release; the fresh
	// delivery above proving byte equality shows the recycled buffer was
	// fully overwritten by payload bytes, not served half-stale.
	if got := pool.Stats().Hits; got < 1 {
		t.Fatalf("pool hits = %d, want >= 1 (second read should recycle the aborted buffer)", got)
	}
}

// TestPooledReadRemoteErrorKeepsStream: a clean server-side error on the
// pooled path must surface as RemoteError without poisoning the stream or
// leaking a lease.
func TestPooledReadRemoteErrorKeepsStream(t *testing.T) {
	_, names, sock, _ := startPooledServer(t, 2)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pool := mempool.New(mempool.Config{Debug: true})
	c.SetBufferPool(pool)

	_, err = c.Read("no-such-file.bin")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Read(missing) = %v, want RemoteError", err)
	}
	if c.Broken() {
		t.Fatal("clean remote error poisoned the pooled stream")
	}
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("remote error leaked %d leases", got)
	}
	d, err := c.Read(names[0])
	if err != nil {
		t.Fatalf("Read after remote error: %v", err)
	}
	d.Release()
	if got := c.Reconnects(); got != 0 {
		t.Fatalf("Reconnects = %d, want 0", got)
	}
}

// TestPooledAndUnpooledClientsAgree runs the same reads through a pooled
// and an unpooled client against one pooled server: the delivered bytes
// must be bit-for-bit identical (the wire format does not change with
// pooling on either side).
func TestPooledAndUnpooledClientsAgree(t *testing.T) {
	_, names, sock, _ := startPooledServer(t, 6)
	pooled, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	pooled.SetBufferPool(mempool.New(mempool.Config{Debug: true}))
	plain, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	for _, n := range names {
		dp, err := pooled.Read(n)
		if err != nil {
			t.Fatalf("pooled Read(%s): %v", n, err)
		}
		du, err := plain.Read(n)
		if err != nil {
			t.Fatalf("plain Read(%s): %v", n, err)
		}
		if !bytes.Equal(dp.Bytes, du.Bytes) {
			t.Fatalf("Read(%s): pooled and unpooled clients delivered different bytes", n)
		}
		if dp.Ref == nil {
			t.Fatalf("pooled client returned no lease for %s", n)
		}
		if du.Ref != nil {
			t.Fatalf("unpooled client returned a lease for %s", n)
		}
		dp.Release()
	}
}
