//go:build linux && (amd64 || arm64)

package ipc

import (
	"bytes"
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

// The client's checks on a grant, over real sockets and real memfds: the
// payload region a server that predates the arena (DESIGN.md §29) grants.

// regionMappings counts this process's mappings of the memfds the refusal
// cases pass.
func regionMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), "memfd:test-region")
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
						rd := frameReader(conn)
						for {
							opcode, trace, _, err := rd.readFrame()
							if err != nil {
								return
							}
							if opcode == OpArena {
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
			if _, err := c.Read("x"); !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "grant refused") {
				t.Fatalf("Read = %v, want ErrConnBroken refusing the grant", err)
			}
			if !c.Broken() || mappingOf(c) != nil || reads.Load() != 0 {
				t.Fatalf("broken %v, region %v, %d reads sent", c.Broken(), mappingOf(c) != nil, reads.Load())
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

// TestRegionGrantFromAnOldServer: a server that predates the arena ignores
// the client's ask and grants a payload region — OK | uvarint size, no
// arena field — of up to MaxFrame bytes. The client maps that foreign
// memfd privately, not as an arena: its reads decode payloads located
// anywhere in the region byte-exact, and payloads inline beside them, and
// it never sends OpRelease, not even on Close, which unmaps the region.
func TestRegionGrantFromAnOldServer(t *testing.T) {
	const size = MaxFrame
	fd := sealedMemfd(t, size, fSealShrink|fSealGrow)
	defer syscall.Close(fd)
	last := make([]byte, 10<<10)
	for i := range last {
		last[i] = byte(i*7 + 3)
	}
	// What each read is answered with, in order: a payload at the region's
	// end, one inline, one at its start.
	replies := []struct {
		payload []byte
		off     int // -1: inline
	}{{last, size - len(last)}, {[]byte("inline"), -1}, {[]byte("first"), 0}}
	for _, r := range replies {
		if r.off >= 0 {
			if _, err := syscall.Pwrite(fd, r.payload, int64(r.off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sock := filepath.Join(t.TempDir(), "old.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var seen []byte // every opcode the server read, in order
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := frameReader(conn)
		for reads := 0; ; {
			opcode, trace, _, err := rd.readFrame()
			if err != nil {
				return
			}
			seen = append(seen, opcode)
			var frame []byte
			switch {
			case opcode == OpArena:
				body := okResponse(binary.AppendUvarint(nil, size))
				frame = append(appendFrameHeader(nil, opcode, trace, len(body)), body...)
				if _, _, err := conn.(*net.UnixConn).WriteMsgUnix(frame, syscall.UnixRights(fd), nil); err != nil {
					return
				}
				continue
			case opcode == OpRead && reads < len(replies):
				r := replies[reads]
				reads++
				body := binary.AppendUvarint([]byte{statusOK}, uint64(len(r.payload)))
				body = binary.AppendUvarint(body, uint64(len(r.payload)))
				body = binary.AppendUvarint(body, uint64(r.off+1))
				if r.off < 0 {
					body = append(body, r.payload...)
				}
				frame = append(appendFrameHeader(nil, opcode, trace, len(body)), body...)
			default:
				body := errResponse(errors.New("unexpected request"))
				frame = append(appendFrameHeader(nil, opcode, trace, len(body)), body...)
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	maps := regionMappings(t)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		d, err := c.Read("x")
		if err != nil || !bytes.Equal(d.Bytes, r.payload) {
			t.Fatalf("read %d = %d bytes, %v; want the server's %d", i, len(d.Bytes), err, len(r.payload))
		}
		d.Release()
	}
	c.mu.Lock()
	mapped, inArena, shared := len(c.mapping), c.inArena, c.arena != nil
	c.mu.Unlock()
	if mapped != size || inArena || shared {
		t.Fatalf("mapping %d bytes (in an arena %v, shared %v), want a private %d-byte region", mapped, inArena, shared, size)
	}
	if got := regionMappings(t); got != maps+1 {
		t.Fatalf("%d region mappings with the client open, want %d", got, maps+1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if want := []byte{OpArena, OpRead, OpRead, OpRead}; !bytes.Equal(seen, want) {
		t.Fatalf("server read opcodes %v, want %v (no OpRelease)", seen, want)
	}
	if got := regionMappings(t); got != maps {
		t.Fatalf("%d region mappings after Close, want %d", got, maps)
	}
}
