//go:build linux && (amd64 || arm64)

package ipc

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// The payload region (DESIGN.md §28) over real sockets and real memfds.

// regionMappings counts this process's mappings of payload regions, both
// ends' (the server's read-write, the client's read-only).
func regionMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), "memfd:prisma-payload")
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// passedFDs counts this process's open descriptors of the files the
// refusal cases pass.
func passedFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if strings.Contains(target, "memfd:test-region") || strings.Contains(target, "not-a-memfd") {
			n++
		}
	}
	return n
}

// settle polls until count() reaches want: the far end of a socket drops
// its mapping and descriptors on its own goroutine.
func settle(t *testing.T, what string, count func(*testing.T) int, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for count(t) != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := count(t); got != want {
		t.Fatalf("%s: %d, want %d", what, got, want)
	}
}

// TestRegionCarriesReadPayloads: a strided reader's payloads — requested and
// pushed — all cross in the region, byte-exact and exactly once, and a
// payload larger than the region falls back inline on the same connection.
// Both pools end the run with every lease home.
func TestRegionCarriesReadPayloads(t *testing.T) {
	fx := startAheadServer(t, 512, 3000)
	big := make([]byte, regionSize+1)
	for i := range big {
		big[i] = byte(i * 7)
	}
	bigName := fx.unplanned[0] // listed, never planned, now larger than the region
	fx.mem.Add(bigName, big)
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
	if region := regionOf(c); len(region) != regionSize {
		t.Fatalf("client region of %d bytes, want %d", len(region), regionSize)
	}
	st := fx.stage.Stats()
	if planned := int64(2 * len(fx.names)); st.RegionPayloads != planned || st.InlinePayloads != 0 {
		t.Fatalf("%d payloads in the region and %d inline, want %d and 0", st.RegionPayloads, st.InlinePayloads, planned)
	}
	if st.ReadAheadSamples == 0 || c.StashHits() != st.ReadAheadSamples {
		t.Fatalf("pushed %d, stash hits %d: the region did not carry pushed samples", st.ReadAheadSamples, c.StashHits())
	}
	d, err := c.Read(bigName)
	if err != nil || string(d.Bytes) != string(big) {
		t.Fatalf("Read(big) = %d bytes, %v", len(d.Bytes), err)
	}
	d.Release()
	if st := fx.stage.Stats(); st.InlinePayloads != 1 {
		t.Fatalf("%d inline payloads after a read larger than the region, want 1", st.InlinePayloads)
	}
	fx.audit()
}

// TestRegionOneGrantPerConnection: the server grants one region per
// connection, passes its descriptor and keeps none; asking again is an
// error that creates no second memfd. Closing either end leaves no mapping
// and no descriptor behind.
func TestRegionOneGrantPerConnection(t *testing.T) {
	srv, _, _, sock := startServer(t, 4)
	maps, fds := regionMappings(t), openFDs(t)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ask := func() ([]byte, []int) {
		t.Helper()
		if err := writeFrame(conn, OpRegion, 0, nil); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		n, got, truncated, err := recvFDs(conn.(*net.UnixConn), buf)
		if err != nil || truncated || n < frameHeaderLen {
			t.Fatalf("region reply: %d bytes, truncated %v, %v", n, truncated, err)
		}
		body, err := parseResponse(buf[frameHeaderLen:n])
		closeFDs(got)
		if err != nil {
			return nil, got
		}
		return body, got
	}
	body, got := ask()
	if size, _ := binary.Uvarint(body); size != regionSize || len(got) != 1 {
		t.Fatalf("grant: size %d with %d descriptors, want %d with 1", size, len(got), regionSize)
	}
	if body, got := ask(); body != nil || len(got) != 0 {
		t.Fatalf("second ask: %q with %d descriptors, want an error and none", body, len(got))
	}
	if got := regionMappings(t); got != maps+1 {
		t.Fatalf("%d region mappings after two asks, want %d: a second memfd was made", got, maps+1)
	}
	// The server kept the mapping, not the descriptor: only the two ends
	// of the socket are new.
	if got := openFDs(t); got != fds+2 {
		t.Fatalf("%d descriptors with one connection open, want %d", got, fds+2)
	}
	conn.Close()
	settle(t, "region mappings after the client hung up", regionMappings, maps)

	// A client's Close and the server's Close, with a region engaged on a
	// live connection.
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("f000.bin"); err != nil {
		t.Fatal(err)
	}
	if regionOf(c) == nil || regionMappings(t) != maps+2 {
		t.Fatalf("region not engaged: %d mappings", regionMappings(t))
	}
	c.Close()
	srv.Close()
	if got := regionMappings(t); got != maps {
		t.Fatalf("%d region mappings after both ends closed, want %d", got, maps)
	}
	settle(t, "descriptors after both ends closed", openFDs, fds-1) // the listener is gone too
}

// TestRegionRedialMapsAFreshRegion: a poisoned connection takes its region
// with it; the redial asks for and maps a new one.
func TestRegionRedialMapsAFreshRegion(t *testing.T) {
	_, _, names, sock := startServer(t, 4)
	maps := regionMappings(t)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	if regionOf(c) == nil {
		t.Fatal("no region after the first read")
	}
	c.mu.Lock()
	c.poisonLocked()
	c.mu.Unlock()
	if regionOf(c) != nil {
		t.Fatal("poisoned connection kept its region")
	}
	settle(t, "region mappings after poisoning", regionMappings, maps)
	d, err := c.Read(names[1])
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	if regionOf(c) == nil || c.Reconnects() != 1 {
		t.Fatalf("after the redial: region %v, %d reconnects", regionOf(c) != nil, c.Reconnects())
	}
	// One mapping at each end of the one live connection: the old pair is
	// gone.
	if got := regionMappings(t); got != maps+2 {
		t.Fatalf("%d region mappings on one live connection, want %d", got, maps+2)
	}
}

// sealedMemfd makes a memfd of size bytes carrying seals.
func sealedMemfd(t *testing.T, size int, seals uintptr) int {
	t.Helper()
	name, _ := syscall.BytePtrFromString("test-region")
	r, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	fd := int(r)
	if err := syscall.Ftruncate(fd, int64(size)); err != nil {
		t.Fatal(err)
	}
	if seals != 0 {
		if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fAddSeals, seals); errno != 0 {
			t.Fatal(errno)
		}
	}
	return fd
}

// TestRegionRefusedUnlessSealedAndSized: a region reply the client cannot
// trust — no descriptor, two, one that is not sealed against resizing, not
// a memfd or not the announced size — is refused. The read fails without
// having been sent, the client keeps none of the descriptors and maps
// nothing, and after the redial it reads inline without asking again.
func TestRegionRefusedUnlessSealedAndSized(t *testing.T) {
	const size = 64 << 10
	good := func() int { return sealedMemfd(t, size, fSealShrink|fSealGrow) }
	plainFile := func() int {
		fd, err := syscall.Open(filepath.Join(t.TempDir(), "not-a-memfd"), syscall.O_CREAT|syscall.O_RDWR|syscall.O_CLOEXEC, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Ftruncate(fd, size); err != nil {
			t.Fatal(err)
		}
		return fd
	}
	cases := []struct {
		name     string
		announce uint64
		fds      func() []int
	}{
		{"no descriptor", size, func() []int { return nil }},
		{"two descriptors", size, func() []int { return []int{good(), good()} }},
		{"not sealed", size, func() []int { return []int{sealedMemfd(t, size, 0)} }},
		{"may still grow", size, func() []int { return []int{sealedMemfd(t, size, fSealShrink)} }},
		{"may still shrink", size, func() []int { return []int{sealedMemfd(t, size, fSealGrow)} }},
		{"larger than announced", size / 2, func() []int { return []int{good()} }},
		{"not a memfd", size, func() []int { return []int{plainFile()} }},
		{"zero size", 0, func() []int { return []int{good()} }},
		{"past MaxFrame", MaxFrame + 1, func() []int { return []int{good()} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sock := filepath.Join(t.TempDir(), "refused.sock")
			l, err := net.Listen("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var asks, reads atomic.Int32
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					go func(conn net.Conn) {
						defer conn.Close()
						for {
							opcode, trace, _, err := readFrame(conn)
							if err != nil {
								return
							}
							if opcode == OpRegion {
								asks.Add(1)
								body := okResponse(binary.AppendUvarint(nil, tc.announce))
								frame := append(appendFrameHeader(nil, opcode, trace, len(body)), body...)
								fds := tc.fds()
								var oob []byte
								if len(fds) > 0 {
									oob = syscall.UnixRights(fds...)
								}
								_, _, err := conn.(*net.UnixConn).WriteMsgUnix(frame, oob, nil)
								closeFDs(fds)
								if err != nil {
									return
								}
								continue
							}
							reads.Add(1)
							body := append(appendSampleHead([]byte{statusOK}, storage.Data{Size: 3, Bytes: []byte("abc")}), "abc"...)
							if writeFrame(conn, opcode, trace, body) != nil {
								return
							}
						}
					}(conn)
				}
			}()
			maps := regionMappings(t)
			c, err := Dial(sock)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Read("x"); !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "region refused") {
				t.Fatalf("Read = %v, want ErrConnBroken refusing the region", err)
			}
			if !c.Broken() || regionOf(c) != nil || reads.Load() != 0 {
				t.Fatalf("broken %v, region %v, %d reads sent", c.Broken(), regionOf(c) != nil, reads.Load())
			}
			if got := regionMappings(t); got != maps {
				t.Fatalf("%d region mappings, want %d", got, maps)
			}
			// The fake server's copies close as it sends; the client's must
			// not outlive the refusal.
			settle(t, "passed descriptors still open after the refusal", passedFDs, 0)
			d, err := c.Read("y")
			if err != nil || string(d.Bytes) != "abc" {
				t.Fatalf("Read after the refusal = %q, %v", d.Bytes, err)
			}
			if asks.Load() != 1 || reads.Load() != 1 {
				t.Fatalf("server saw %d region requests and %d reads, want 1 and 1", asks.Load(), reads.Load())
			}
		})
	}
}
