package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// regionTestSize is the mapping a scripted client decodes against: small,
// so that a fuzz input can reach past its end.
const regionTestSize = 64 << 10

// scriptedRegionClient is scriptedClient holding a real shared mapping of
// regionTestSize bytes, as if a server that predates the arena had granted
// it as a payload region; nil where this build has no shared memory. The
// client holds the only reference to the arena behind it, which its Close
// releases.
func scriptedRegionClient(replies []byte) (*Client, *mempool.Pool) {
	a, err := newArena(regionTestSize)
	if err != nil {
		return nil, nil
	}
	c, pool := scriptedClient(replies)
	c.mapping, c.arena, c.asked = a.mem, a, true
	return c, pool
}

// scriptedArenaClient is scriptedRegionClient granted an arena instead:
// the same mapping, with the arena's end-of-plan bit understood.
func scriptedArenaClient(replies []byte) (*Client, *mempool.Pool) {
	c, pool := scriptedRegionClient(replies)
	if c != nil {
		c.inArena = true
	}
	return c, pool
}

// endOfPlanReply is a planned read reply on a connection with a mapping
// whose pushed count carries the end-of-plan bit: the requested sample and
// one pushed sample, both located in the mapping.
func endOfPlanReply() []byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return regionReadReply(3, 3, 1, nil, bytes.Join([][]byte{uv(endOfPlan | 1),
		uv(2), []byte("n1"), uv(4), uv(4), uv(65)}, nil))
}

func mappingOf(c *Client) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapping
}

// regionReadReply encodes the OK reply to an untraced OpRead on a
// connection with a region: the requested sample's head with its location
// (inline bytes follow only at location 0), then tail verbatim.
func regionReadReply(size, blen, loc uint64, inline, tail []byte) []byte {
	body := binary.AppendUvarint([]byte{statusOK}, size)
	body = binary.AppendUvarint(body, blen)
	body = binary.AppendUvarint(body, loc)
	body = append(append(body, inline...), tail...)
	return append(appendFrameHeader(nil, OpRead, 0, len(body)), body...)
}

// malformedRegionReplies are read replies whose locations lie about the
// region, and one that carries a location to a client without a region;
// each must fail the read cleanly (TestMalformedRegionReplies) and seeds
// FuzzFrame. The key says which client decodes it.
func malformedRegionReplies() map[string][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	pushed := func(loc uint64) []byte {
		return bytes.Join([][]byte{uv(1), uv(5), []byte("a.bin"), uv(3), uv(3), uv(loc)}, nil)
	}
	return map[string][]byte{
		"region: location past the region":         regionReadReply(1, 1, regionTestSize+2, nil, nil),
		"region: payload runs past the region":     regionReadReply(3, 3, regionTestSize-1, nil, nil),
		"region: offset overflows":                 regionReadReply(1, 1<<63, 1<<63, nil, nil),
		"region: offset + length overflows":        regionReadReply(1, 1<<64-1, 2, nil, nil),
		"region: pushed sample past the region":    regionReadReply(3, 3, 1, nil, pushed(regionTestSize+5)),
		"region: head ends before its location":    append(appendFrameHeader(nil, OpRead, 0, 3), statusOK, 3, 3),
		"region: inline payload short":             regionReadReply(3, 3, 0, []byte("ab"), nil),
		"inline: location on a regionless reply":   regionReadReply(3, 3, 1, nil, nil),
		"region: end-of-plan bit without an arena": endOfPlanReply(),
	}
}

// goodRegionReplies are well-formed replies for a client with a region:
// payloads in it, inline, and pushed behind the requested one.
func goodRegionReplies() [][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return [][]byte{
		regionReadReply(3, 3, 1, nil, nil),
		regionReadReply(3, 3, 0, []byte("abc"), nil),
		regionReadReply(0, 0, 0, nil, nil),
		regionReadReply(3, 3, regionTestSize-2, nil, bytes.Join([][]byte{uv(2),
			uv(2), []byte("n1"), uv(4), uv(4), uv(1),
			uv(2), []byte("n2"), uv(3), uv(3), uv(0), []byte("xyz")}, nil)),
	}
}

// TestMalformedRegionReplies: a location outside the mapping, an offset
// and length whose sum overflows, and a location sent to a client without
// a region each fail the read with the connection poisoned, the region
// unmapped and no lease leaked — never a panic or a fault.
func TestMalformedRegionReplies(t *testing.T) {
	if !ArenaSupported {
		t.Skip("no payload regions on this platform")
	}
	for name, reply := range malformedRegionReplies() {
		c, pool := scriptedRegionClient(reply)
		if name[:len("inline")] == "inline" {
			c.Close()
			c, pool = scriptedClient(reply)
		}
		if _, err := c.Read("requested.bin"); !errors.Is(err, ErrConnBroken) {
			t.Errorf("%s: Read = %v, want ErrConnBroken", name, err)
		}
		if !c.Broken() || c.mapping != nil {
			t.Errorf("%s: poisoned %v, region kept %v", name, c.Broken(), c.mapping != nil)
		}
		if got := pool.Stats().Outstanding; got != 0 {
			t.Errorf("%s: %d leases leaked\n%s", name, got, mempool.FormatLeaks(pool.Leaks()))
		}
		c.Close()
	}
	for i, reply := range goodRegionReplies() {
		c, pool := scriptedRegionClient(reply)
		d, err := c.Read("requested.bin")
		if err != nil || len(d.Bytes) != int(d.Size) {
			t.Errorf("good reply %d: Read = %d of %d bytes, %v", i, len(d.Bytes), d.Size, err)
		}
		d.Release()
		c.Close()
		if got := pool.Stats().Outstanding; got != 0 {
			t.Errorf("good reply %d: %d leases outstanding after Close", i, got)
		}
	}
}

// TestArenaEndOfPlanRelease: a reply whose pushed count carries the
// end-of-plan bit decodes on an arena connection — both payloads copied out
// of the mapping — and the client answers it with one header-only
// OpRelease after the request; without the bit it sends nothing more.
func TestArenaEndOfPlanRelease(t *testing.T) {
	if !ArenaSupported {
		t.Skip("no payload regions on this platform")
	}
	release := appendFrameHeader(nil, OpRelease, 0, 0)
	for _, reply := range [][]byte{endOfPlanReply(), goodRegionReplies()[3]} {
		c, pool := scriptedArenaClient(reply)
		conn := c.conn.(*scriptedConn)
		d, err := c.Read("requested.bin")
		if err != nil || len(d.Bytes) != 3 || stashLen(c) == 0 {
			t.Fatalf("Read = %d bytes with %d stashed, %v", len(d.Bytes), stashLen(c), err)
		}
		d.Release()
		wrote := conn.w.Bytes()
		sentRelease := bytes.HasSuffix(wrote, release) && len(wrote) > len(release)
		if want := bytes.Equal(reply, endOfPlanReply()); sentRelease != want || c.Broken() {
			t.Fatalf("sent OpRelease %v, want %v (broken %v)", sentRelease, want, c.Broken())
		}
		c.Close()
		if got := pool.Stats().Outstanding; got != 0 {
			t.Fatalf("%d leases outstanding after Close", got)
		}
	}
}

// TestArenaOnlyOverUnixSockets: neither end offers the arena on a
// connection that is not a UNIX-domain socket. The server answers OpArena
// with an error and passes no descriptor; the client never asks, and reads
// the inline reply the way it always did.
func TestArenaOnlyOverUnixSockets(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cs := newConnState(a)
	if _, err := parseResponse((&Server{}).handleArena(cs, arenaAsk)); err == nil || cs.arena != nil || cs.fd != -1 {
		t.Fatalf("OpArena over a pipe: %v, arena %v, fd %d", err, cs.arena != nil, cs.fd)
	}
	// A scripted connection is not a UNIX socket either: had the client
	// asked, the one reply it is given would have answered the request.
	c, pool := scriptedClient(readReply([]byte("abc"), nil))
	d, err := c.Read("requested.bin")
	if err != nil || string(d.Bytes) != "abc" || c.mapping != nil {
		t.Fatalf("Read = %q, %v (region %v)", d.Bytes, err, c.mapping != nil)
	}
	d.Release()
	c.Close()
	if pool.Stats().Outstanding != 0 {
		t.Fatal("lease leaked")
	}
}

// TestArenaInlineOnlyClient: a client that never asks (as one that
// predates the arena and the payload region) reads inline from a new
// server, and the server counts every payload it sent that way.
func TestArenaInlineOnlyClient(t *testing.T) {
	_, stage, names, sock := startServer(t, 8)
	c, err := DialWithConfig(sock, DialConfig{InlineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range names {
		d, err := c.Read(name)
		if err != nil || len(d.Bytes) == 0 {
			t.Fatalf("Read(%s) = %d bytes, %v", name, len(d.Bytes), err)
		}
	}
	if st := stage.Stats(); c.mapping != nil || st.ArenaPayloads != 0 || st.InlinePayloads != int64(len(names)) {
		t.Fatalf("mapping %v; %d payloads in the arena and %d inline, want 0 and %d",
			c.mapping != nil, st.ArenaPayloads, st.InlinePayloads, len(names))
	}
}
