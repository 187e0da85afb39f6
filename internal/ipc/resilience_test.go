package ipc

import (
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer is a hand-rolled peer whose first badConns connections
// misbehave (they answer any request with a truncated frame and hang up)
// and whose later connections speak the protocol correctly, answering
// every request with an empty OK response. It exercises the client's
// poison-and-redial path without needing a fault hook in the real server.
type flakyServer struct {
	listener net.Listener
	badConns int32
	accepted atomic.Int32
}

func startFlakyServer(t *testing.T, badConns int32) (*flakyServer, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "flaky.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyServer{listener: l, badConns: badConns}
	go fs.acceptLoop()
	t.Cleanup(func() { l.Close() })
	return fs, sock
}

func (fs *flakyServer) acceptLoop() {
	for {
		conn, err := fs.listener.Accept()
		if err != nil {
			return
		}
		n := fs.accepted.Add(1)
		go fs.serve(conn, n <= fs.badConns)
	}
}

func (fs *flakyServer) serve(conn net.Conn, misbehave bool) {
	defer conn.Close()
	rd := frameReader(conn)
	for {
		opcode, trace, _, err := rd.readFrame()
		if err != nil {
			return
		}
		if misbehave {
			// A partial header: the client sees a short read mid-frame.
			conn.Write([]byte{0, 0, 0})
			return
		}
		if err := writeFrame(conn, opcode, trace, okResponse(nil)); err != nil {
			return
		}
	}
}

func TestClientPoisonedAfterTruncatedResponse(t *testing.T) {
	_, sock := startFlakyServer(t, 1)
	c, err := Dial(sock) // zero config: no in-call retries
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("Ping after truncated response = %v, want ErrConnBroken", err)
	}
	if !c.Broken() {
		t.Fatal("connection not marked broken after transport failure")
	}
	// The next call redials transparently and lands on a healthy
	// connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after redial: %v", err)
	}
	if c.Broken() {
		t.Fatal("connection still marked broken after successful redial")
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
}

func TestClientRetriesIdempotentCallInPlace(t *testing.T) {
	_, sock := startFlakyServer(t, 1)
	c, err := DialWithConfig(sock, DialConfig{
		MaxReconnects:    2,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First attempt hits the misbehaving connection; the retry redials and
	// succeeds within the same call.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping with reconnects = %v, want success", err)
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
}

func TestClientReadTimeoutPoisonsConnection(t *testing.T) {
	// A peer that accepts requests and never answers them.
	sock := filepath.Join(t.TempDir(), "mute.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				rd := frameReader(c)
				for {
					if _, _, _, err := rd.readFrame(); err != nil {
						return
					}
					// Swallow the request; never respond.
				}
			}(conn)
		}
	}()
	c, err := DialWithConfig(sock, DialConfig{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Ping()
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("Ping against mute server = %v, want ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the wait: took %v", elapsed)
	}
	if !c.Broken() {
		t.Fatal("timed-out connection not poisoned")
	}
}

func TestClientRemoteErrorDoesNotPoison(t *testing.T) {
	_, _, _, sock := startServer(t, 1)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("ghost.bin"); err == nil {
		t.Fatal("read of missing file succeeded")
	}
	if c.Broken() {
		t.Fatal("clean server-side error poisoned the connection")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after remote error: %v", err)
	}
	if got := c.Reconnects(); got != 0 {
		t.Fatalf("Reconnects = %d, want 0", got)
	}
}

func TestServerPanicIsolated(t *testing.T) {
	// A nil stage makes every dispatch panic; safeHandle must convert that
	// into an error response instead of crashing the server.
	srv := &Server{}
	r := srv.safeHandle(newConnState(nil), OpCancelEpoch, 0, []byte{1})
	if _, err := parseResponse(r.head); err == nil {
		t.Fatal("panicking handler produced a success response")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("panicking handler produced malformed response: %v", err)
	}
	if got := srv.Panics(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}

func TestServerPanicKeepsConnectionAlive(t *testing.T) {
	// Over the wire: a request that panics the handler yields a RemoteError
	// and the same connection keeps serving later requests. A nil stage
	// makes every stage-touching dispatch panic.
	sock := filepath.Join(t.TempDir(), "panicky.sock")
	srv, err := ServeWithConfig(sock, nil, nil, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CancelEpoch(1)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("CancelEpoch over panicking stage = %v, want RemoteError", err)
	}
	// OpPing does not touch the stage, so the connection must still work.
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after handler panic: %v", err)
	}
	if c.Reconnects() != 0 {
		t.Fatal("handler panic should not have severed the connection")
	}
}

func TestServerIdleTimeoutDropsConnection(t *testing.T) {
	_, _, _, sock := startServerWithConfig(t, 1, ServeConfig{IdleTimeout: 50 * time.Millisecond})
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// The server dropped the idle connection; the zero-config client sees a
	// transport failure, then recovers by redialing on the following call.
	if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("Ping on idle-dropped conn = %v, want ErrConnBroken", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after redial: %v", err)
	}
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
}
