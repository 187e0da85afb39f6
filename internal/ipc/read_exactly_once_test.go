package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// preArenaReply is how a server that predates OpArena answers it: as an
// unknown opcode. Fake servers send it so that a client's arena request
// meets them as it meets a real old server, and the client reads inline.
func preArenaReply() []byte { return errResponse(fmt.Errorf("unknown opcode %d", OpArena)) }

// countingServer records how many frames of each opcode it receives. Its
// first badConns connections answer any request with a truncated frame and
// hang up; later connections answer OK. It distinguishes "the client
// redialed" (fine) from "the client re-sent the request" (forbidden for
// non-resendable opcodes).
type countingServer struct {
	listener net.Listener
	badConns int32
	accepted atomic.Int32
	reads    atomic.Int32 // OpRead frames received
	pings    atomic.Int32 // OpPing frames received
}

func startCountingServer(t *testing.T, badConns int32) (*countingServer, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "counting.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingServer{listener: l, badConns: badConns}
	go cs.acceptLoop()
	t.Cleanup(func() { l.Close() })
	return cs, sock
}

func (cs *countingServer) acceptLoop() {
	for {
		conn, err := cs.listener.Accept()
		if err != nil {
			return
		}
		n := cs.accepted.Add(1)
		go cs.serve(conn, n <= cs.badConns)
	}
}

func (cs *countingServer) serve(conn net.Conn, misbehave bool) {
	defer conn.Close()
	rd := frameReader(conn)
	for {
		opcode, trace, _, err := rd.readFrame()
		if err != nil {
			return
		}
		if opcode == OpArena {
			if err := writeFrame(conn, opcode, trace, preArenaReply()); err != nil {
				return
			}
			continue
		}
		switch opcode {
		case OpRead:
			cs.reads.Add(1)
		case OpPing:
			cs.pings.Add(1)
		}
		if misbehave {
			conn.Write([]byte{0, 0, 0})
			return
		}
		body := okResponse(nil)
		if opcode == OpRead {
			body = okResponse(append(binary.AppendUvarint(nil, 3), 3, 'a', 'b', 'c'))
		}
		if err := writeFrame(conn, opcode, trace, body); err != nil {
			return
		}
	}
}

// TestClientReadNeverResent proves the read-exactly-once invariant at the
// transport layer: a consumer read that dies mid-exchange must surface
// ErrConnBroken instead of being silently re-sent on a fresh connection —
// even when the retry budget would allow it. The server received the
// request before the stream broke; a duplicate send could consume (and
// discard) a second sample from the evict-on-read buffer.
func TestClientReadNeverResent(t *testing.T) {
	cs, sock := startCountingServer(t, 1)
	c, err := DialWithConfig(sock, DialConfig{
		MaxReconnects:    2, // budget exists; Read must not spend it on re-sends
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Read("train/img_000001.jpg")
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("Read over broken stream = %v, want ErrConnBroken", err)
	}
	if got := cs.reads.Load(); got != 1 {
		t.Fatalf("server received %d OpRead frames, want exactly 1 (no silent resend)", got)
	}

	// The same budget on the same client does re-send a resendable opcode:
	// Ping lands once on the broken stream path having already been poisoned
	// above, so this call redials first and succeeds with one send.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after poisoned read: %v", err)
	}

	// A second misbehaving window would re-send Ping but never Read: verify
	// the contrast directly on a fresh client against a fresh bad conn.
	cs2, sock2 := startCountingServer(t, 1)
	c2, err := DialWithConfig(sock2, DialConfig{MaxReconnects: 2, ReconnectBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("resendable Ping with retry budget = %v, want in-call recovery", err)
	}
	if got := cs2.pings.Load(); got != 2 {
		t.Fatalf("server received %d OpPing frames, want 2 (original + one resend)", got)
	}
}

// TestClientReadRedialsBeforeSend verifies the safe half of the policy: a
// connection poisoned by an earlier call is redialed before a Read's
// single send, so non-resendable does not mean non-recoverable.
func TestClientReadRedialsBeforeSend(t *testing.T) {
	cs, sock := startCountingServer(t, 1)
	c, err := Dial(sock) // zero config
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("priming Ping = %v, want ErrConnBroken", err)
	}
	if _, err := c.Read("x"); err != nil {
		t.Fatalf("Read after redial = %v, want success", err)
	}
	if got := cs.reads.Load(); got != 1 {
		t.Fatalf("server received %d OpRead frames, want 1", got)
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
}

// TestPooledClientReadNeverResent re-proves the exactly-once invariant on
// the pooled decode path: with a buffer pool attached, a read that dies
// mid-exchange must still surface ErrConnBroken with exactly one OpRead on
// the wire — and must not leak the lease it acquired for the response.
func TestPooledClientReadNeverResent(t *testing.T) {
	cs, sock := startCountingServer(t, 1)
	c, err := DialWithConfig(sock, DialConfig{
		MaxReconnects:    2,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pool := mempool.New(mempool.Config{Debug: true})
	c.SetBufferPool(pool)

	_, err = c.Read("train/img_000001.jpg")
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("pooled Read over broken stream = %v, want ErrConnBroken", err)
	}
	if got := cs.reads.Load(); got != 1 {
		t.Fatalf("server received %d OpRead frames, want exactly 1 (no silent resend)", got)
	}
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("broken pooled read leaked %d leases:\n%s", got, mempool.FormatLeaks(pool.Leaks()))
	}

	// The redialed pooled read succeeds, delivers a lease, and still sends
	// the request exactly once.
	d, err := c.Read("train/img_000002.jpg")
	if err != nil {
		t.Fatalf("pooled Read after redial: %v", err)
	}
	if d.Ref == nil {
		t.Fatal("pooled read after redial returned no lease")
	}
	d.Release()
	if got := cs.reads.Load(); got != 2 {
		t.Fatalf("server received %d OpRead frames, want 2", got)
	}
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("%d leases outstanding after release", got)
	}
}
