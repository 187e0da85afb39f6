package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// scriptedConn is a net.Conn whose peer already said everything it will
// ever say: reads drain a fixed byte stream, writes are kept and never
// answered. It puts the client's reply decoder in front of arbitrary bytes
// without a socket.
type scriptedConn struct {
	net.Conn // nil: the deadline and address methods are never called here
	r        *bytes.Reader
	w        bytes.Buffer
	closed   bool
}

func (c *scriptedConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *scriptedConn) Close() error                { c.closed = true; return nil }

// scriptedClient is a pooled client (debug pool, for the leak audit) whose
// server's replies are the given bytes.
func scriptedClient(replies []byte) (*Client, *mempool.Pool) {
	conn := &scriptedConn{r: bytes.NewReader(replies)}
	pool := mempool.New(mempool.Config{Debug: true})
	return &Client{path: "/nonexistent/scripted.sock", conn: conn, rd: newConnReader(conn, clientReadBuf), pool: pool}, pool
}

// pushedSample is one sample of a hand-built read reply.
type pushedSample struct {
	name    string
	payload []byte
}

// readReply encodes the OK reply to an untraced OpRead: the requested
// sample, then — when pushed is non-nil — the planned-read tail.
func readReply(payload []byte, pushed []pushedSample) []byte {
	var tail []byte
	if pushed != nil {
		tail = binary.AppendUvarint(tail, uint64(len(pushed)))
		for _, p := range pushed {
			tail = appendString(tail, p.name)
			tail = appendSampleHead(tail, storage.Data{Size: int64(len(p.payload)), Bytes: p.payload})
			tail = append(tail, p.payload...)
		}
	}
	return readReplyRaw(payload, tail)
}

// readReplyRaw is readReply with the bytes behind the requested sample
// given verbatim, so a test can make them lie.
func readReplyRaw(payload, tail []byte) []byte {
	body := appendSampleHead([]byte{statusOK}, storage.Data{Size: int64(len(payload)), Bytes: payload})
	body = append(append(body, payload...), tail...)
	return append(appendFrameHeader(nil, OpRead, 0, len(body)), body...)
}

// malformedPushedReplies are read replies whose pushed tail lies about
// itself; each must fail the read cleanly (TestMalformedPushedReplies) and
// seeds FuzzFrame.
func malformedPushedReplies() map[string][]byte {
	main := bytes.Repeat([]byte{0xAB}, 300)
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	tail := func(fields ...[]byte) []byte { return readReplyRaw(main, bytes.Join(fields, nil)) }
	abc := []byte("abc")
	tooMany := make([]pushedSample, maxAheadWindow+1)
	for i := range tooMany {
		tooMany[i] = pushedSample{name: fmt.Sprintf("x%d", i), payload: []byte{byte(i)}}
	}
	good := readReply(main, []pushedSample{{"a.bin", bytes.Repeat([]byte{1}, 200)}, {"b.bin", bytes.Repeat([]byte{2}, 100)}})
	return map[string][]byte{
		"name length past the frame":    tail(uv(1), uv(1000), []byte("a.bin"), uv(3), uv(3), abc),
		"zero-length name":              tail(uv(1), uv(0), uv(3), uv(3), abc),
		"payload length past the frame": tail(uv(1), uv(5), []byte("a.bin"), uv(3), uv(1000), abc),
		"more samples than the window":  readReply(main, tooMany),
		"count above what follows":      tail(uv(2), uv(5), []byte("a.bin"), uv(3), uv(3), abc),
		"bytes behind the last sample":  tail(uv(1), uv(5), []byte("a.bin"), uv(3), uv(3), abc, []byte("junk")),
		"truncated mid-sample":          good[:len(good)-150],
	}
}

// FuzzFrame hardens the wire decoders against hostile peers: arbitrary byte
// streams must never panic or over-allocate; every accepted frame must
// re-encode to the bytes consumed; and the same bytes taken as a server's
// reply to a pooled read must either decode or fail the read with the
// connection poisoned — and in both cases leak no lease.
func FuzzFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, OpRead, 0x1234, appendString(nil, "train/0001.jpg"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	// A read response whose payload is the pool's largest size class
	// (mempool's default MaxSize): the shape the vectored server write and
	// the pooled client decode exchange at full size.
	{
		pooledMax := mempool.New(mempool.Config{}).Get(4 << 20)
		body := pooledMax.Bytes()
		for i := range body {
			body[i] = byte(i)
		}
		f.Add(readReply(body, nil))
		pooledMax.Release()
	}
	// Replies with pushed samples: a well-formed one, an error reply, and
	// every way the tail can lie.
	f.Add(readReply([]byte("abc"), []pushedSample{{"n1", []byte("one")}, {"n2", nil}}))
	f.Add(append(appendFrameHeader(nil, OpRead, 0, 4), statusErr, 2, 'n', 'o'))
	// The control plane's two requests; the second claims more pairs than
	// its payload holds.
	for _, req := range []struct {
		op      byte
		payload []byte
	}{
		{OpGet, binary.AppendUvarint(nil, 0)},
		{OpControl, append(binary.AppendUvarint(nil, 1<<40), 1, 'k', 1, 'v')},
	} {
		var frame bytes.Buffer
		_ = writeFrame(&frame, req.op, 0, req.payload)
		f.Add(frame.Bytes())
	}
	for _, reply := range malformedPushedReplies() {
		f.Add(reply)
	}
	// Replies with locations: good ones, and every way a location can lie
	// about the arena, or reach a client that has none.
	for _, reply := range goodArenaReplies() {
		f.Add(reply)
	}
	for _, reply := range malformedArenaReplies() {
		f.Add(reply)
	}
	// Grants: an arena's with its version, an old server's payload region,
	// and ones that lie.
	for _, grant := range [][]byte{
		binary.AppendUvarint(binary.AppendUvarint(nil, maxArenaSize), arenaVersion),
		binary.AppendUvarint(nil, 4<<20),
		binary.AppendUvarint(binary.AppendUvarint(nil, maxArenaSize+1), arenaVersion),
		binary.AppendUvarint(binary.AppendUvarint(nil, maxArenaSize), 2),
		append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), arenaVersion), 0),
	} {
		var frame bytes.Buffer
		_ = writeFrame(&frame, OpArena, 0, okResponse(grant))
		f.Add(frame.Bytes())
	}

	clients := newFuzzClients()
	f.Cleanup(clients.close)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzClientRead(t, clients, data, false)
		fuzzClientRead(t, clients, data, true)
		// Whatever a grant says, a size is accepted only within the arena
		// bound.
		if size, err := parseGrant(data); err == nil && (size <= 0 || size > maxArenaSize) {
			t.Fatalf("parseGrant accepted %d bytes", size)
		}
		opcode, trace, payload, err := frameReader(bytes.NewReader(data)).readFrame()
		if err != nil {
			return
		}
		if len(payload)+9 > MaxFrame {
			t.Fatalf("accepted oversized payload %d", len(payload))
		}
		var out bytes.Buffer
		if err := writeFrame(&out, opcode, trace, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-encode mismatch")
		}
		// The zero-copy string decoder must agree byte-for-byte with the
		// copying one on every accepted payload.
		cs, srest, serr := readString(payload)
		sb, brest, berr := readStringBytes(payload)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("readString err=%v, readStringBytes err=%v", serr, berr)
		}
		if serr == nil && (cs != string(sb) || !bytes.Equal(srest, brest)) {
			t.Fatal("readStringBytes disagrees with readString")
		}
		// The read-ahead tail is optional and untrusted: whatever it holds,
		// the decoded bounds stay inside this build's.
		if tail := parseAheadTail(payload); tail.window > maxAheadWindow || tail.budget > maxAheadBytes {
			t.Fatalf("parseAheadTail escaped its bounds: %+v", tail)
		}
	})
}

// fuzzClients are the parts FuzzFrame's scripted clients are built from,
// made once per fuzz worker: a debug pool, a read buffer and, where this
// build has shared memory, one arena of arenaTestSize bytes that every
// arena client borrows a reference to. Made per input, as the
// scripted* helpers make them, the memfd and its mapping, the 64 KiB read
// buffer and a fresh pool's first lease of each size cost more than the
// decode of a small input, and a large input's payload buffer is no longer
// allocated and zeroed anew on each of its executions.
type fuzzClients struct {
	pool  *mempool.Pool
	rd    *connReader
	arena *arena // nil where this build has no shared memory
}

func newFuzzClients() *fuzzClients {
	fc := &fuzzClients{pool: mempool.New(mempool.Config{Debug: true}), rd: newConnReader(nil, clientReadBuf)}
	fc.arena, _ = newArena(arenaTestSize)
	return fc
}

// client returns a client, granted the arena when inArena is set, whose
// server's replies are data, or nil when that needs shared memory this
// build does not have. Its Close drops the reference to the arena it
// borrowed.
func (fc *fuzzClients) client(data []byte, inArena bool) *Client {
	conn := &scriptedConn{r: bytes.NewReader(data)}
	fc.rd.reset(conn)
	c := &Client{path: "/nonexistent/scripted.sock", conn: conn, rd: fc.rd, pool: fc.pool}
	if !inArena {
		return c
	}
	if fc.arena == nil {
		return nil
	}
	fc.arena.retain()
	c.mapping, c.arena, c.asked = fc.arena.mem, fc.arena, true
	return c
}

func (fc *fuzzClients) close() {
	if fc.arena != nil {
		fc.arena.release()
	}
}

// fuzzClientRead feeds data to a pooled client as the reply to one read,
// on a connection granted the arena when inArena is set (where this build
// has one).
func fuzzClientRead(t *testing.T, fc *fuzzClients, data []byte, inArena bool) {
	c, pool := fc.client(data, inArena), fc.pool
	if c == nil {
		return
	}
	d, err := c.Read("requested.bin")
	switch {
	case err == nil:
		d.Release()
	case isCleanError(err):
		if c.Broken() {
			t.Fatalf("clean error %v poisoned the connection", err)
		}
	case !c.Broken():
		t.Fatalf("read failed with %v but the connection is not poisoned", err)
	}
	c.Close()
	if got := pool.Stats().Outstanding; got != 0 {
		t.Fatalf("%d leases leaked (read err: %v)\n%s", got, err, mempool.FormatLeaks(pool.Leaks()))
	}
}

// TestMalformedPushedReplies: each way a reply's pushed tail can lie about
// its lengths or count fails the read, poisons the connection and leaks no
// lease — neither the requested sample's nor an already-stashed one's.
func TestMalformedPushedReplies(t *testing.T) {
	for name, reply := range malformedPushedReplies() {
		c, pool := scriptedClient(reply)
		if _, err := c.Read("requested.bin"); !errors.Is(err, ErrConnBroken) {
			t.Errorf("%s: Read = %v, want ErrConnBroken", name, err)
		}
		if !c.Broken() {
			t.Errorf("%s: connection not poisoned", name)
		}
		if got := pool.Stats().Outstanding; got != 0 {
			t.Errorf("%s: %d leases leaked\n%s", name, got, mempool.FormatLeaks(pool.Leaks()))
		}
		c.Close()
	}
}

// FuzzServerHandle drives the request dispatcher directly with arbitrary
// opcode/payload pairs: the server must always produce a well-formed
// response and never panic, whatever a client sends.
//
// OpPlan is remapped to OpPing in the fuzzed space: a plan changes stage
// state, and a later OpRead of a planned-but-not-yet-prefetched name
// legitimately blocks that connection (Take waits for the producers),
// which would wedge the fuzz worker. Plan/read interleavings are covered
// by the deterministic tests; here we fuzz the stateless parsing surface.
func FuzzServerHandle(f *testing.F) {
	srv, _, names, _ := fuzzServer(f, nil)
	f.Add(uint8(OpRead), appendString(nil, names[0]))
	f.Add(uint8(OpGet), []byte{})
	f.Add(uint8(OpGet), binary.AppendUvarint(nil, 2))
	f.Add(uint8(OpControl), appendSettings(nil, []string{"producers=2", "buffer=16"}))
	f.Add(uint8(OpControl), appendSettings(nil, []string{"producers=NaN"}))
	// More pairs than the payload holds.
	f.Add(uint8(OpControl), append(binary.AppendUvarint(nil, 1<<40), 1, 'k', 1, 'v'))
	f.Add(uint8(99), []byte{1, 2, 3})
	// An old client's request for a payload region, and an arena request:
	// on the plain connection (not a UNIX socket) and on the ones already
	// granted, all errors and no descriptor.
	f.Add(uint8(OpArena), []byte{})
	f.Add(uint8(OpArena), arenaAsk)
	f.Add(uint8(OpRead), appendString(nil, names[1]))
	// A release: never answered, wherever it comes.
	f.Add(uint8(OpRelease), []byte{})
	f.Add(uint8(OpRelease), []byte{1, 2, 3})

	// Every input runs on three connections: one without the arena, one
	// granted it, whose reads lend payloads from it until the next input,
	// and one granted the arena of a server with tenants.
	tenantSrv, _, _, _ := fuzzServer(f, testTenants(f))
	conns := []struct {
		srv *Server
		cs  *connState
	}{{srv, newConnState(nil)}, {srv, newConnState(nil)}, {tenantSrv, newConnState(nil)}}
	conns[1].cs.arena, conns[2].cs.arena = srv.arena, tenantSrv.arena
	f.Cleanup(func() {
		for _, c := range conns {
			c.cs.releaseLent(false)
		}
	})
	f.Fuzz(func(t *testing.T, opcode uint8, payload []byte) {
		if opcode == OpPlan {
			opcode = OpPing
		}
		for _, c := range conns {
			cs := c.cs
			r, reply := c.srv.serveFrame(cs, opcode, 0, payload)
			if cs.fd != -1 {
				t.Fatalf("opcode %d left descriptor %d to pass on a connection that may not have one", opcode, cs.fd)
			}
			if !reply {
				if opcode != OpRelease || cs.nlent != 0 {
					t.Fatalf("opcode %d unanswered with %d leases held", opcode, cs.nlent)
				}
				continue
			}
			if cs.arena == nil && cs.nlent != 0 {
				t.Fatalf("opcode %d lent %d payloads on a connection without an arena", opcode, cs.nlent)
			}
			resp := r.head
			if r.samples {
				// A read reply: the head bytes behind the reserved frame
				// header, with any inline payload spliced in.
				var frame bytes.Buffer
				cs.layout()
				if _, err := cs.bufs.WriteTo(&frame); err != nil {
					t.Fatal(err)
				}
				resp = frame.Bytes()[frameHeaderLen:]
				cs.releaseHeld()
			}
			if len(resp) < 1 {
				t.Fatal("empty response")
			}
			if resp[0] != statusOK && resp[0] != statusErr {
				t.Fatalf("unknown status byte %d", resp[0])
			}
			if _, err := parseResponse(resp); err != nil {
				// RemoteError is fine; malformed responses are not.
				if _, ok := err.(*RemoteError); !ok {
					t.Fatalf("server emitted malformed response: %v", err)
				}
			}
		}
	})
}

// fuzzServer builds a server directly (fuzz entry points receive a
// *testing.F, so the testing.T-based startServer helper does not apply),
// with tenants (nil for none), a pooled leaf and, where this build has
// one, an arena.
func fuzzServer(f *testing.F, tenants *tenancy.Manager) (*Server, *core.Stage, []string, string) {
	f.Helper()
	dir := f.TempDir()
	samples := make([]dataset.Sample, 4)
	names := make([]string, 4)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d.bin", i), Size: 1024}
		names[i] = samples[i].Name
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 42); err != nil {
		f.Fatal(err)
	}
	env := conc.NewReal()
	backend := storagetest.OpenDir(f, dir)
	pool := mempool.New(mempool.Config{Debug: true})
	backend.SetBufferPool(pool)
	stage, err := core.NewStage(env, backend, man, core.StageConfig{
		InitialProducers: 1, MaxProducers: 4, InitialBufferCapacity: 8, MaxBufferCapacity: 32,
		BufferPool: pool,
	})
	if err != nil {
		f.Fatal(err)
	}
	stage.Start()
	sock := filepath.Join(f.TempDir(), "fuzz.sock")
	srv, err := ServeWithConfig(sock, stage, nil, ServeConfig{Tenants: tenants})
	if err != nil {
		f.Fatal(err)
	}
	attachSurface(srv, stage, nil)
	f.Cleanup(func() {
		srv.Close()
		stage.Close()
	})
	return srv, stage, names, sock
}
