package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// arenaTestSize is the arena a scripted client decodes against: small, so
// that a fuzz input can reach past its end.
const arenaTestSize = 64 << 10

// scriptedArenaClient is scriptedClient granted a real arena of
// arenaTestSize bytes; nil where this build has no shared memory. The
// client holds the only reference to the arena, which its Close releases.
func scriptedArenaClient(replies []byte) (*Client, *mempool.Pool) {
	a, err := newArena(arenaTestSize)
	if err != nil {
		return nil, nil
	}
	c, pool := scriptedClient(replies)
	c.mapping, c.arena, c.asked = a.mem, a, true
	return c, pool
}

// endOfPlanReply is a planned read reply on a connection with a mapping
// whose pushed count carries the end-of-plan bit: the requested sample and
// one pushed sample, both located in the mapping.
func endOfPlanReply() []byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return arenaReadReply(3, 3, 1, nil, bytes.Join([][]byte{uv(endOfPlan | 1),
		uv(2), []byte("n1"), uv(4), uv(4), uv(65)}, nil))
}

func mappingOf(c *Client) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapping
}

// arenaReadReply encodes the OK reply to an untraced OpRead on a
// connection granted the arena: the requested sample's head with its
// location
// (inline bytes follow only at location 0), then tail verbatim.
func arenaReadReply(size, blen, loc uint64, inline, tail []byte) []byte {
	body := binary.AppendUvarint([]byte{statusOK}, size)
	body = binary.AppendUvarint(body, blen)
	body = binary.AppendUvarint(body, loc)
	body = append(append(body, inline...), tail...)
	return append(appendFrameHeader(nil, OpRead, 0, len(body)), body...)
}

// malformedArenaReplies are read replies whose locations lie about the
// arena, and ones that carry a location or the end-of-plan bit to a client
// without an arena; each must fail the read cleanly
// (TestMalformedArenaReplies) and seeds FuzzFrame. The key says which
// client decodes it.
func malformedArenaReplies() map[string][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	pushed := func(loc uint64) []byte {
		return bytes.Join([][]byte{uv(1), uv(5), []byte("a.bin"), uv(3), uv(3), uv(loc)}, nil)
	}
	return map[string][]byte{
		"arena: location past the arena":           arenaReadReply(1, 1, arenaTestSize+2, nil, nil),
		"arena: payload runs past the arena":       arenaReadReply(3, 3, arenaTestSize-1, nil, nil),
		"arena: offset overflows":                  arenaReadReply(1, 1<<63, 1<<63, nil, nil),
		"arena: offset + length overflows":         arenaReadReply(1, 1<<64-1, 2, nil, nil),
		"arena: pushed sample past the arena":      arenaReadReply(3, 3, 1, nil, pushed(arenaTestSize+5)),
		"arena: head ends before its location":     append(appendFrameHeader(nil, OpRead, 0, 3), statusOK, 3, 3),
		"arena: inline payload short":              arenaReadReply(3, 3, 0, []byte("ab"), nil),
		"inline: location on an arenaless reply":   arenaReadReply(3, 3, 1, nil, nil),
		"inline: end-of-plan bit without an arena": readReplyRaw([]byte("abc"), bytes.Join([][]byte{uv(endOfPlan | 1), uv(2), []byte("n1"), uv(1), uv(1), []byte("x")}, nil)),
	}
}

// goodArenaReplies are well-formed replies for a client granted the arena:
// payloads in it, inline, and pushed behind the requested one.
func goodArenaReplies() [][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return [][]byte{
		arenaReadReply(3, 3, 1, nil, nil),
		arenaReadReply(3, 3, 0, []byte("abc"), nil),
		arenaReadReply(0, 0, 0, nil, nil),
		arenaReadReply(3, 3, arenaTestSize-2, nil, bytes.Join([][]byte{uv(2),
			uv(2), []byte("n1"), uv(4), uv(4), uv(1),
			uv(2), []byte("n2"), uv(3), uv(3), uv(0), []byte("xyz")}, nil)),
	}
}

// TestMalformedArenaReplies: a location outside the mapping, an offset
// and length whose sum overflows, and a location or the end-of-plan bit
// sent to a client without an arena each fail the read with the
// connection poisoned, the arena let go of and no lease leaked — never a
// panic or a fault.
func TestMalformedArenaReplies(t *testing.T) {
	if !ArenaSupported {
		t.Skip("no shared arena on this platform")
	}
	for name, reply := range malformedArenaReplies() {
		c, pool := scriptedArenaClient(reply)
		if name[:len("inline")] == "inline" {
			c.Close()
			c, pool = scriptedClient(reply)
		}
		if _, err := c.Read("requested.bin"); !errors.Is(err, ErrConnBroken) {
			t.Errorf("%s: Read = %v, want ErrConnBroken", name, err)
		}
		if !c.Broken() || c.mapping != nil {
			t.Errorf("%s: poisoned %v, arena kept %v", name, c.Broken(), c.mapping != nil)
		}
		if got := pool.Stats().Outstanding; got != 0 {
			t.Errorf("%s: %d leases leaked\n%s", name, got, mempool.FormatLeaks(pool.Leaks()))
		}
		c.Close()
	}
	for i, reply := range goodArenaReplies() {
		c, pool := scriptedArenaClient(reply)
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
		t.Skip("no shared arena on this platform")
	}
	release := appendFrameHeader(nil, OpRelease, 0, 0)
	for _, reply := range [][]byte{endOfPlanReply(), goodArenaReplies()[3]} {
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
		t.Fatalf("Read = %q, %v (arena %v)", d.Bytes, err, c.mapping != nil)
	}
	d.Release()
	c.Close()
	if pool.Stats().Outstanding != 0 {
		t.Fatal("lease leaked")
	}
}

// TestArenaInlineOnlyClient: a client that never asks (as one that
// predates the arena) reads inline from a new server, and the server
// counts every payload it sent that way.
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
