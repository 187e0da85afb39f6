//go:build linux && (amd64 || arm64)

package ipc

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// The shared arena (DESIGN.md §29) over real sockets and real memfds.

// startArenaServer is startAheadServer without tenants, whose server
// carves its pool from an arena of size bytes (0 = what arenaBytes works
// out) and grants it.
func startArenaServer(t *testing.T, nFiles, size, bytes int) *aheadFixture {
	t.Helper()
	fx := startAheadServerWith(t, nFiles, size, mempool.New(mempool.Config{Debug: true}), ServeConfig{arenaSize: bytes})
	if fx.srv.arena == nil {
		t.Fatal("the server made no arena")
	}
	return fx
}

// arenaMappings counts this process's mappings of arenas.
func arenaMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), "memfd:prisma-arena")
}

// serverLeases is what the server's pool has out beyond the samples parked
// in the prefetch buffer: the leases connections hold.
func (fx *aheadFixture) serverLeases() int64 {
	return fx.pool.Stats().Outstanding - int64(fx.stage.Stats().Buffer.Len)
}

// TestArenaCarriesStridedReads: two clients striding each epoch's plan read
// every entry byte-exact with every payload in the arena, where the
// producer put it, and no lease is left on the server between epochs — the
// end-of-plan release ends each connection's last one. The two clients and
// the server share one mapping, which outlives the server while a client
// holds it.
func TestArenaCarriesStridedReads(t *testing.T) {
	maps := arenaMappings(t)
	fx := startArenaServer(t, 1024, 3000, 0)
	clients := []*Client{fx.dial(), fx.dial()}
	const epochs = 3
	for epoch := int64(0); epoch < epochs; epoch++ {
		plan := shuffled(fx.names, epoch)
		if _, err := clients[0].SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				for i := ci; i < len(plan); i += len(clients) {
					if err := fx.read(c, plan[i]); err != nil {
						t.Error(err)
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		settle(t, "server leases after the epoch", func(*testing.T) int { return int(fx.pool.Stats().Outstanding) }, 0)
		for ci, p := range fx.clients {
			if got := p.Stats().Outstanding; got != 0 {
				t.Fatalf("epoch %d: client %d holds %d leases", epoch, ci, got)
			}
		}
	}
	st := fx.stage.Stats()
	if want := int64(epochs * len(fx.names)); st.ArenaPayloads != want || st.InlinePayloads != 0 {
		t.Fatalf("%d payloads in the arena, %d inline; want %d, 0", st.ArenaPayloads, st.InlinePayloads, want)
	}
	if st.ReadAheadSamples == 0 {
		t.Fatal("nothing was pushed: the arena did not carry read-ahead")
	}
	// 64 buffered samples and 2 producers, in the 4 KiB class, twice over.
	const size = 2 * (64 + 2) * 4 << 10
	if st.Pool.ArenaCapacity != size || st.Pool.ArenaCarved == 0 {
		t.Fatalf("pool arena stats: %d of %d carved, want an arena of %d", st.Pool.ArenaCarved, st.Pool.ArenaCapacity, size)
	}
	for ci, c := range clients {
		if c.arena != fx.srv.arena || len(mappingOf(c)) != size {
			t.Fatalf("client %d: shares the server's arena %v, mapping of %d bytes", ci, c.arena == fx.srv.arena, len(mappingOf(c)))
		}
	}
	if got := arenaMappings(t); got != maps+1 {
		t.Fatalf("%d arena mappings with two clients connected, want %d", got, maps+1)
	}
	fx.audit()
	if got := arenaMappings(t); got != maps+1 {
		t.Fatalf("%d arena mappings after the server closed under two clients, want %d", got, maps+1)
	}
	for _, c := range clients {
		c.Close()
	}
	if got := arenaMappings(t); got != maps {
		t.Fatalf("%d arena mappings after everyone let go, want %d", got, maps)
	}
}

// TestArenaLeasesEndAtNextFrame: an idle connection holds the leases of its
// last reply and no more — those of one sample before its stride is
// confirmed, of the requested and pushed samples after — and they end when
// its next frame arrives, whatever it is, or when it closes.
func TestArenaLeasesEndAtNextFrame(t *testing.T) {
	fx := startArenaServer(t, 8, 3000, 0)
	c := fx.dial()
	plan := fx.names
	if _, err := c.SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	fx.awaitParked(len(plan))
	want := func(what string, n int64) {
		t.Helper()
		if got := fx.serverLeases(); got != n {
			t.Fatalf("%s: connection holds %d leases, want %d", what, got, n)
		}
	}
	fx.mustRead(c, plan[0])
	want("after the first read", 1)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	want("after a ping", 0)
	fx.mustRead(c, plan[1])
	want("after the second read", 1)
	fx.mustRead(c, plan[2]) // confirms the stride: plan[3] rides behind it
	want("after a reply with a push", 2)
	if stashLen(c) != 1 {
		t.Fatalf("stash holds %d samples, want 1", stashLen(c))
	}
	c.Close()
	settle(t, "leases after the client closed", func(*testing.T) int { return int(fx.serverLeases()) }, 0)
	// The client's close released them first, so they recycled: a lease
	// that ends with the connection is retired, which discards it.
	if got := fx.pool.Stats().Discarded; got != 0 {
		t.Fatalf("%d buffers discarded: the client's close did not release its leases", got)
	}
	fx.audit()
}

// TestArenaDroppedConnectionKeepsLentBytes: a connection the server drops —
// by Close, or by an idle timeout — while its client has the last reply
// whole in its socket but has not copied it out yet leaves that reply's
// payload where it was: the buffer it lent is never handed to a producer
// again (Close stops recycling before it severs; a lease that ends with the
// connection is retired), so the client's late copy reads the sample it
// asked for, while the stage reads on into the same pool.
func TestArenaDroppedConnectionKeepsLentBytes(t *testing.T) {
	for _, drop := range []string{"close", "idle timeout"} {
		t.Run(drop, func(t *testing.T) {
			var cfg ServeConfig
			if drop == "idle timeout" {
				cfg.IdleTimeout = 100 * time.Millisecond
			}
			fx := startAheadServerWith(t, 8, 3000, mempool.New(mempool.Config{Debug: true}), cfg)
			if fx.srv.arena == nil {
				t.Fatal("the server made no arena")
			}
			conn, err := net.Dial("unix", fx.sock)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			mem := mapArena(t, conn)
			name := fx.unplanned[0]
			if err := writeFrame(conn, OpRead, 0, appendString(nil, name)); err != nil {
				t.Fatal(err)
			}
			awaitWholeFrame(t, conn)
			switch drop {
			case "close":
				fx.srv.Close()
			default:
				settle(t, "the dropped connection's lease", func(*testing.T) int { return int(fx.pool.Stats().Outstanding) }, 0)
			}
			// The stage reads on, into whatever buffers its pool hands out.
			for _, other := range fx.unplanned[1:] {
				d, _, err := fx.stage.Read(core.ReadRequest{Name: other})
				if err != nil {
					t.Fatal(err)
				}
				d.Release()
			}
			// Only now does the client decode the reply and copy out.
			_, _, payload, err := frameReader(conn).readFrame()
			if err != nil || len(payload) < 1 || payload[0] != statusOK {
				t.Fatalf("reply: %q, %v", payload, err)
			}
			body := payload[1:]
			var head [3]uint64 // size, payload length, location
			for i := range head {
				v, k := binary.Uvarint(body)
				if k <= 0 {
					t.Fatalf("reply head %d: malformed", i)
				}
				head[i], body = v, body[k:]
			}
			size, blen, loc := head[0], head[1], head[2]
			if loc == 0 || loc-1+blen > uint64(len(mem)) {
				t.Fatalf("payload at location %d, %d bytes: not in the %d-byte arena", loc, blen, len(mem))
			}
			want, _ := fx.mem.Content(name)
			if size != uint64(len(want)) || !bytes.Equal(mem[loc-1:loc-1+blen], want) {
				t.Fatalf("the late copy of %s read other bytes than the sample's", name)
			}
		})
	}
}

// askGrant sends OpArena with payload on conn and returns the reply's
// body — nil for an error reply — and the descriptors that rode it, which
// the caller closes.
func askGrant(t *testing.T, conn net.Conn, payload []byte) ([]byte, []int) {
	t.Helper()
	if err := writeFrame(conn, OpArena, 0, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, fds, truncated, err := recvFDs(conn.(*net.UnixConn), buf)
	if err != nil || truncated || n < frameHeaderLen {
		closeFDs(fds)
		t.Fatalf("grant: %d bytes, %d descriptors, truncated %v, %v", n, len(fds), truncated, err)
	}
	body, err := parseResponse(buf[frameHeaderLen:n])
	if err != nil {
		return nil, fds
	}
	return body, fds
}

// mapArena asks for the server's arena on conn and maps the grant; the
// mapping, this process's own, is shared under a reference released at
// the test's end.
func mapArena(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	body, fds := askGrant(t, conn, arenaAsk)
	defer closeFDs(fds)
	if body == nil || len(fds) != 1 {
		t.Fatalf("grant refused, or with %d descriptors", len(fds))
	}
	size, _ := binary.Uvarint(body)
	mem, a, err := mapGrant(fds[0], int(size))
	if err != nil || a == nil {
		t.Fatalf("mapping the grant: shared %v, %v", a != nil, err)
	}
	t.Cleanup(a.release)
	return mem
}

// awaitWholeFrame waits until a whole frame sits in conn's receive buffer,
// without reading it.
func awaitWholeFrame(t *testing.T, conn net.Conn) {
	t.Helper()
	raw, err := conn.(*net.UnixConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var peek [512]byte
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := 0
		_ = raw.Read(func(fd uintptr) bool {
			n, _, _ = syscall.Recvfrom(int(fd), peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		})
		if n >= 4 && n >= 4+int(binary.BigEndian.Uint32(peek[:4])) {
			return
		}
	}
	t.Fatal("the reply never arrived")
}

// TestArenaReleaseWithNothingLent: OpRelease is never answered and ends
// nothing where nothing is lent — on a connection granted the arena or
// not, twice in a row, between other requests — and the stream stays in
// step.
func TestArenaReleaseWithNothingLent(t *testing.T) {
	fx := startArenaServer(t, 8, 3000, 0)
	for _, granted := range []bool{false, true} {
		conn, err := net.Dial("unix", fx.sock)
		if err != nil {
			t.Fatal(err)
		}
		if granted {
			mapArena(t, conn)
		}
		for _, op := range []byte{OpRelease, OpRelease, OpPing, OpRelease, OpPing} {
			if err := writeFrame(conn, op, 7, nil); err != nil {
				t.Fatal(err)
			}
		}
		rd := frameReader(conn) // both replies may arrive in one read
		for i := 0; i < 2; i++ {
			opcode, trace, payload, err := rd.readFrame()
			if err != nil || opcode != OpPing || trace != 7 || len(payload) != 1 || payload[0] != statusOK {
				t.Fatalf("granted %v: reply %d: opcode %d trace %d %q %v, want the ping's", granted, i, opcode, trace, payload, err)
			}
		}
		conn.Close()
	}
}

// TestArenaFullSendsInline: once the arena is carved out, the pool's
// further buffers come from the heap, and their payloads go inline on the
// same connection — every read byte-exact, and no lease left.
func TestArenaFullSendsInline(t *testing.T) {
	const full = 64 << 10 // sixteen 4 KiB buffers
	fx := startArenaServer(t, 256, 3000, full)
	c := fx.dial()
	for epoch := int64(0); epoch < 2; epoch++ {
		plan := shuffled(fx.names, epoch)
		if _, err := c.SubmitEpoch(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			fx.mustRead(c, name)
		}
	}
	st := fx.stage.Stats()
	if st.ArenaPayloads == 0 || st.InlinePayloads == 0 || st.ArenaPayloads+st.InlinePayloads != int64(2*len(fx.names)) {
		t.Fatalf("%d payloads in the arena, %d inline; want both, summing to %d",
			st.ArenaPayloads, st.InlinePayloads, 2*len(fx.names))
	}
	if st.Pool.ArenaCarved != full || st.Pool.ArenaCapacity != full {
		t.Fatalf("arena %d of %d bytes carved, want all %d", st.Pool.ArenaCarved, st.Pool.ArenaCapacity, full)
	}
	fx.audit()
}

// TestArenaPairings: a client that predates the arena (OpArena with an
// empty payload, asking for a payload region) gets an error reply and no
// descriptor, and reads inline on the same connection; a new client of a
// server with tenants is granted the server's arena and reads in it.
func TestArenaPairings(t *testing.T) {
	fx := startAheadServer(t, 8, 3000) // with tenants
	if fx.srv.arena == nil {
		t.Fatal("a server with tenants made no arena")
	}
	conn, err := net.Dial("unix", fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if body, fds := askGrant(t, conn, nil); body != nil || len(fds) != 0 {
		closeFDs(fds)
		t.Fatalf("old client's ask for a payload region: %q with %d descriptors, want an error and none", body, len(fds))
	}
	fx.oldRead(conn, fx.unplanned[0])
	if st := fx.stage.Stats(); st.InlinePayloads != 1 || st.ArenaPayloads != 0 {
		t.Fatalf("old client: %d payloads inline and %d in the arena, want 1 and 0", st.InlinePayloads, st.ArenaPayloads)
	}

	c := fx.dial()
	fx.mustRead(c, fx.unplanned[1])
	if c.arena != fx.srv.arena || len(mappingOf(c)) != len(fx.srv.arena.mem) {
		t.Fatalf("new client of a server with tenants: shares the server's arena %v, mapping of %d bytes", c.arena == fx.srv.arena, len(mappingOf(c)))
	}
	if st := fx.stage.Stats(); st.ArenaPayloads != 1 || st.InlinePayloads != 1 {
		t.Fatalf("%d payloads in the arena and %d inline, want 1 and 1", st.ArenaPayloads, st.InlinePayloads)
	}
	fx.audit()
}

// TestArenaOneGrantPerConnection: the server grants its arena once per
// connection and keeps no descriptor for it beyond the arena's own; asking
// again is an error that passes none. Closing either end leaves no
// descriptor behind, and the arena goes with the server and its last
// client.
func TestArenaOneGrantPerConnection(t *testing.T) {
	maps, fds := arenaMappings(t), openFDs(t)
	fx := startArenaServer(t, 8, 3000, 0)
	// The arena's mapping and descriptor, and the listener.
	if got := arenaMappings(t); got != maps+1 {
		t.Fatalf("%d arena mappings with the server up, want %d", got, maps+1)
	}
	base := openFDs(t)
	if base != fds+2 {
		t.Fatalf("%d descriptors with the server up, want %d", base, fds+2)
	}
	conn, err := net.Dial("unix", fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	ask := func() ([]byte, int) {
		t.Helper()
		body, fds := askGrant(t, conn, arenaAsk)
		closeFDs(fds)
		return body, len(fds)
	}
	body, got := ask()
	if size, _ := binary.Uvarint(body); size != uint64(len(fx.srv.arena.mem)) || got != 1 {
		t.Fatalf("grant: size %d with %d descriptors, want %d with 1", size, got, len(fx.srv.arena.mem))
	}
	if body, got := ask(); body != nil || got != 0 {
		t.Fatalf("second ask: %q with %d descriptors, want an error and none", body, got)
	}
	// The server kept no duplicate: only the two ends of the socket are
	// new.
	if got := openFDs(t); got != base+2 {
		t.Fatalf("%d descriptors with one connection open, want %d", got, base+2)
	}
	conn.Close()
	settle(t, "descriptors after the client hung up", openFDs, base)

	// A client's Close and the server's Close, with the arena engaged on a
	// live connection: the client shares the server's mapping.
	c := fx.dial()
	fx.mustRead(c, fx.unplanned[0])
	if mappingOf(c) == nil || arenaMappings(t) != maps+1 {
		t.Fatalf("arena not shared: %d mappings", arenaMappings(t))
	}
	c.Close()
	fx.audit()
	if got := arenaMappings(t); got != maps {
		t.Fatalf("%d arena mappings after both ends closed, want %d", got, maps)
	}
	settle(t, "descriptors after both ends closed", openFDs, fds)
}

// TestArenaRedialMapsAgain: a poisoned connection lets go of its share of
// the arena; the redial is granted it again.
func TestArenaRedialMapsAgain(t *testing.T) {
	fx := startArenaServer(t, 8, 3000, 0)
	c := fx.dial()
	fx.mustRead(c, fx.unplanned[0])
	if c.arena != fx.srv.arena {
		t.Fatal("no share of the arena after the first read")
	}
	c.mu.Lock()
	c.poisonLocked()
	c.mu.Unlock()
	if mappingOf(c) != nil || c.arena != nil {
		t.Fatal("poisoned connection kept its share of the arena")
	}
	fx.mustRead(c, fx.unplanned[1])
	if c.arena != fx.srv.arena || c.Reconnects() != 1 {
		t.Fatalf("after the redial: shares the server's arena %v, %d reconnects", c.arena == fx.srv.arena, c.Reconnects())
	}
	fx.audit()
}

// TestArenaGrantIsReadOnly: a client can write nothing through the
// descriptor it is granted — not by mapping it writable, nor by making a
// read-only mapping writable, nor by writing the file — so no client can
// change the payloads another is lent, or the hierarchy's residents. The
// server's own mapping stays writable: its producers read on into it, and
// a client reads their bytes.
func TestArenaGrantIsReadOnly(t *testing.T) {
	fx := startArenaServer(t, 8, 3000, 0)
	conn, err := net.Dial("unix", fx.sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, fds := askGrant(t, conn, arenaAsk)
	defer closeFDs(fds)
	if body == nil || len(fds) != 1 {
		t.Fatalf("grant refused, or with %d descriptors", len(fds))
	}
	fd, size := fds[0], len(fx.srv.arena.mem)
	if mem, err := syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED); err == nil {
		syscall.Munmap(mem)
		t.Error("the grant mapped read-write")
	}
	mem, err := syscall.Mmap(fd, 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Fatalf("the grant did not map read-only: %v", err)
	}
	if err := syscall.Mprotect(mem, syscall.PROT_READ|syscall.PROT_WRITE); err == nil {
		t.Error("a read-only mapping of the grant was made writable")
	}
	syscall.Munmap(mem)
	if _, err := syscall.Pwrite(fd, []byte{1}, 0); err == nil {
		t.Error("the grant was written through")
	}
	c := fx.dial()
	if _, err := c.SubmitEpoch(fx.names); err != nil {
		t.Fatal(err)
	}
	for _, name := range fx.names {
		fx.mustRead(c, name)
	}
	if st := fx.stage.Stats(); st.ArenaPayloads != int64(len(fx.names)) {
		t.Fatalf("%d of %d payloads in the arena", st.ArenaPayloads, len(fx.names))
	}
	fx.audit()
}
