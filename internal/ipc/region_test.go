package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// regionTestSize is the region a scripted client decodes against: small,
// so that a fuzz input can reach past its end.
const regionTestSize = 64 << 10

// scriptedRegionClient is scriptedClient holding a real payload region of
// regionTestSize bytes, as if the server had granted it; nil where this
// build has no regions.
func scriptedRegionClient(replies []byte) (*Client, *mempool.Pool) {
	fd, mem, err := newRegion(regionTestSize)
	if err != nil {
		return nil, nil
	}
	closeFDs([]int{fd})
	c, pool := scriptedClient(replies)
	c.region, c.regionAsked = mem, true
	return c, pool
}

func regionOf(c *Client) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.region
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
		"region: location past the region":       regionReadReply(1, 1, regionTestSize+2, nil, nil),
		"region: payload runs past the region":   regionReadReply(3, 3, regionTestSize-1, nil, nil),
		"region: offset overflows":               regionReadReply(1, 1<<63, 1<<63, nil, nil),
		"region: offset + length overflows":      regionReadReply(1, 1<<64-1, 2, nil, nil),
		"region: pushed sample past the region":  regionReadReply(3, 3, 1, nil, pushed(regionTestSize+5)),
		"region: head ends before its location":  append(appendFrameHeader(nil, OpRead, 0, 3), statusOK, 3, 3),
		"region: inline payload short":           regionReadReply(3, 3, 0, []byte("ab"), nil),
		"inline: location on a regionless reply": regionReadReply(3, 3, 1, nil, nil),
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
	if !RegionSupported {
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
		if !c.Broken() || c.region != nil {
			t.Errorf("%s: poisoned %v, region kept %v", name, c.Broken(), c.region != nil)
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

// TestRegionOnlyOverUnixSockets: neither end offers a region on a
// connection that is not a UNIX-domain socket. The server answers OpRegion
// with an error and makes no memfd; the client never asks, and reads the
// inline reply the way it always did.
func TestRegionOnlyOverUnixSockets(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cs := newConnState(a)
	if _, err := parseResponse(handleRegion(cs)); err == nil || cs.region != nil || cs.fd != -1 {
		t.Fatalf("OpRegion over a pipe: %v, region %v, fd %d", err, cs.region != nil, cs.fd)
	}
	// A scripted connection is not a UNIX socket either: had the client
	// asked, the one reply it is given would have answered the request.
	c, pool := scriptedClient(readReply([]byte("abc"), nil))
	d, err := c.Read("requested.bin")
	if err != nil || string(d.Bytes) != "abc" || c.region != nil {
		t.Fatalf("Read = %q, %v (region %v)", d.Bytes, err, c.region != nil)
	}
	d.Release()
	c.Close()
	if pool.Stats().Outstanding != 0 {
		t.Fatal("lease leaked")
	}
}

// TestRegionInlineOnlyClient: a client that never asks (as one that
// predates the region) reads inline from a new server, and the server
// counts every payload it sent that way.
func TestRegionInlineOnlyClient(t *testing.T) {
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
	if st := stage.Stats(); c.region != nil || st.RegionPayloads != 0 || st.InlinePayloads != int64(len(names)) {
		t.Fatalf("region %v; %d payloads in a region and %d inline, want 0 and %d",
			c.region != nil, st.RegionPayloads, st.InlinePayloads, len(names))
	}
}

// TestRegionPayloadsStartAligned: the server starts every payload it places
// in a region on a regionAlign boundary, packs them in order, and sends
// inline the one that does not fit what alignment left of the region.
func TestRegionPayloadsStartAligned(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cs := newConnState(a)
	cs.region = make([]byte, 4*regionAlign)
	// The second payload spills one byte into a second line; the third
	// fills the region, so the fourth goes inline.
	sizes := []int{1, regionAlign + 1, regionAlign, regionAlign}
	want := []uint64{0, regionAlign, 3 * regionAlign}
	for i, n := range sizes {
		cs.place(storage.Data{Size: int64(n), Bytes: bytes.Repeat([]byte{byte('a' + i)}, n)})
	}
	rest := cs.wbuf
	for i, n := range sizes {
		var head [3]uint64
		for k := range head {
			v, m := binary.Uvarint(rest)
			if m <= 0 {
				t.Fatalf("payload %d: short head", i)
			}
			head[k], rest = v, rest[m:]
		}
		if head[1] != uint64(n) {
			t.Fatalf("payload %d: length %d, want %d", i, head[1], n)
		}
		if i == len(sizes)-1 {
			if head[2] != 0 || cs.nheld != 1 {
				t.Fatalf("last payload at location %d with %d held, want inline", head[2], cs.nheld)
			}
			continue
		}
		off := head[2] - 1
		if head[2] == 0 || off != want[i] || off%regionAlign != 0 {
			t.Fatalf("payload %d at offset %d (location %d), want %d", i, off, head[2], want[i])
		}
		if got := cs.region[off : off+uint64(n)]; !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, n)) {
			t.Fatalf("payload %d: region holds %q", i, got)
		}
	}
	cs.releaseHeld()
}
