//go:build linux && (amd64 || arm64)

package ipc

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// The shared arena (DESIGN.md §29) over real sockets and real memfds.

// startArenaServer is startAheadServer without tenants: its server carves
// its pool from an arena of size bytes (0 = what arenaBytes works out) and
// grants it.
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
	if want := int64(epochs * len(fx.names)); st.ArenaPayloads != want || st.RegionPayloads != 0 || st.InlinePayloads != 0 {
		t.Fatalf("%d payloads in the arena, %d in a region, %d inline; want %d, 0, 0", st.ArenaPayloads, st.RegionPayloads, st.InlinePayloads, want)
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
		if !c.inArena || c.arena != fx.srv.arena || len(regionOf(c)) != size {
			t.Fatalf("client %d: in arena %v, shares the server's %v, mapping of %d bytes", ci, c.inArena, c.arena == fx.srv.arena, len(regionOf(c)))
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
			mem := mapGrant(t, conn)
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
			_, _, payload, err := readFrame(conn)
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

// mapGrant asks for the server's arena on conn and maps the grant; the
// mapping, this process's own, is shared under a reference released at
// the test's end.
func mapGrant(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	if err := writeFrame(conn, OpRegion, 0, arenaAsk); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, fds, truncated, err := recvFDs(conn.(*net.UnixConn), buf)
	defer closeFDs(fds)
	if err != nil || truncated || n < frameHeaderLen || len(fds) != 1 {
		t.Fatalf("grant: %d bytes, %d descriptors, truncated %v, %v", n, len(fds), truncated, err)
	}
	body, err := parseResponse(buf[frameHeaderLen:n])
	if err != nil {
		t.Fatal(err)
	}
	size, _ := binary.Uvarint(body)
	mem, a, err := mapRegion(fds[0], int(size))
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
// nothing where nothing is lent — on a connection without an arena, twice
// in a row, between other requests — and the stream stays in step.
func TestArenaReleaseWithNothingLent(t *testing.T) {
	for _, arena := range []bool{false, true} {
		cfg := ServeConfig{}
		if !arena {
			cfg.Tenants = regionTenants(t)
		}
		fx := startAheadServerWith(t, 8, 3000, mempool.New(mempool.Config{Debug: true}), cfg)
		conn, err := net.Dial("unix", fx.sock)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []byte{OpRelease, OpRelease, OpPing, OpRelease, OpPing} {
			if err := writeFrame(conn, op, 7, nil); err != nil {
				t.Fatal(err)
			}
		}
		rd := newConnReader(conn, serverReadBuf) // both replies may arrive in one read
		for i := 0; i < 2; i++ {
			opcode, trace, payload, err := rd.readFrame()
			if err != nil || opcode != OpPing || trace != 7 || len(payload) != 1 || payload[0] != statusOK {
				t.Fatalf("arena %v: reply %d: opcode %d trace %d %q %v, want the ping's", arena, i, opcode, trace, payload, err)
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
	if st.ArenaPayloads == 0 || st.InlinePayloads == 0 || st.ArenaPayloads+st.InlinePayloads != int64(2*len(fx.names)) || st.RegionPayloads != 0 {
		t.Fatalf("%d payloads in the arena, %d inline, %d in a region; want both of the first two, summing to %d",
			st.ArenaPayloads, st.InlinePayloads, st.RegionPayloads, 2*len(fx.names))
	}
	if st.Pool.ArenaCarved != full || st.Pool.ArenaCapacity != full {
		t.Fatalf("arena %d of %d bytes carved, want all %d", st.Pool.ArenaCarved, st.Pool.ArenaCapacity, full)
	}
	fx.audit()
}

// TestArenaPairings: a client that predates the arena (OpRegion with an
// empty payload) gets a region from a server with an arena, and a new
// client gets a region from a server with tenants, which has none — the
// reply an old server sends — and reads through it. Only a new client of a
// server with an arena gets the arena.
func TestArenaPairings(t *testing.T) {
	fx := startArenaServer(t, 8, 3000, 0)
	grant := func(payload []byte) (size uint64, flag []byte, target string) {
		t.Helper()
		conn, err := net.Dial("unix", fx.sock)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, OpRegion, 0, payload); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		n, fds, truncated, err := recvFDs(conn.(*net.UnixConn), buf)
		defer closeFDs(fds)
		if err != nil || truncated || n < frameHeaderLen || len(fds) != 1 {
			t.Fatalf("grant: %d bytes, %d descriptors, truncated %v, %v", n, len(fds), truncated, err)
		}
		body, err := parseResponse(buf[frameHeaderLen:n])
		if err != nil {
			t.Fatal(err)
		}
		size, k := binary.Uvarint(body)
		target, _ = os.Readlink(filepath.Join("/proc/self/fd", strconv.Itoa(fds[0])))
		return size, body[k:], target
	}
	if size, flag, target := grant(nil); size != regionSize || len(flag) != 0 || !strings.Contains(target, "prisma-payload") {
		t.Fatalf("old client: %d bytes, flag %q, %s; want a region of %d", size, flag, target, regionSize)
	}
	if size, flag, target := grant(arenaAsk); size != uint64(len(fx.srv.arena.mem)) || string(flag) != string(arenaAsk) || !strings.Contains(target, "prisma-arena") {
		t.Fatalf("new client: %d bytes, flag %q, %s; want the arena of %d", size, flag, target, len(fx.srv.arena.mem))
	}

	plain := startAheadServer(t, 8, 3000) // with tenants
	if plain.srv.arena != nil {
		t.Fatal("a server with tenants made an arena")
	}
	c := plain.dial()
	plain.mustRead(c, plain.names[0])
	if c.inArena || c.arena != nil || len(regionOf(c)) != regionSize {
		t.Fatalf("new client of a server with tenants: in arena %v, region of %d bytes", c.inArena, len(regionOf(c)))
	}
	if st := plain.stage.Stats(); st.RegionPayloads != 1 || st.ArenaPayloads != 0 {
		t.Fatalf("%d payloads in a region and %d in an arena, want 1 and 0", st.RegionPayloads, st.ArenaPayloads)
	}
	plain.audit()
}
