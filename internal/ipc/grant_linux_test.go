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

// The client's checks on an arena grant (DESIGN.md §29), over real sockets
// and real memfds.

// grantMappings counts this process's mappings of the memfds the refusal
// cases pass.
func grantMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), "memfd:test-grant")
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
		if strings.Contains(target, "memfd:test-grant") || strings.Contains(target, "not-a-memfd") {
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
	name, _ := syscall.BytePtrFromString("test-grant")
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

// TestArenaGrantRefusedUnlessSealedAndSized: a grant the client cannot
// trust — no descriptor, two, one that is not sealed against resizing, not
// a memfd or not the announced size, a size past the arena bound, or an old
// server's payload region without the arena's version — is refused. The
// read fails without having been sent, the client keeps none of the
// descriptors and maps nothing, and after the redial it reads inline
// without asking again.
func TestArenaGrantRefusedUnlessSealedAndSized(t *testing.T) {
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
	arenaGrant := func(size uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, size), arenaVersion)
	}
	cases := []struct {
		name  string
		grant []byte
		fds   func() []int
	}{
		{"no descriptor", arenaGrant(size), func() []int { return nil }},
		{"two descriptors", arenaGrant(size), func() []int { return []int{good(), good()} }},
		{"not sealed", arenaGrant(size), func() []int { return []int{sealedMemfd(t, size, 0)} }},
		{"may still grow", arenaGrant(size), func() []int { return []int{sealedMemfd(t, size, fSealShrink)} }},
		{"may still shrink", arenaGrant(size), func() []int { return []int{sealedMemfd(t, size, fSealGrow)} }},
		{"larger than announced", arenaGrant(size / 2), func() []int { return []int{good()} }},
		{"not a memfd", arenaGrant(size), func() []int { return []int{plainFile()} }},
		{"zero size", arenaGrant(0), func() []int { return []int{good()} }},
		{"past the arena bound", arenaGrant(maxArenaSize + 1), func() []int { return []int{good()} }},
		{"an old server's region", binary.AppendUvarint(nil, size), func() []int { return []int{good()} }},
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
								body := okResponse(tc.grant)
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
			maps := grantMappings(t)
			c, err := Dial(sock)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Read("x"); !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "grant refused") {
				t.Fatalf("Read = %v, want ErrConnBroken refusing the grant", err)
			}
			if !c.Broken() || mappingOf(c) != nil || reads.Load() != 0 {
				t.Fatalf("broken %v, mapping %v, %d reads sent", c.Broken(), mappingOf(c) != nil, reads.Load())
			}
			if got := grantMappings(t); got != maps {
				t.Fatalf("%d grant mappings, want %d", got, maps)
			}
			// The fake server's copies close as it sends; the client's must
			// not outlive the refusal.
			settle(t, "passed descriptors still open after the refusal", passedFDs, 0)
			d, err := c.Read("y")
			if err != nil || string(d.Bytes) != "abc" {
				t.Fatalf("Read after the refusal = %q, %v", d.Bytes, err)
			}
			if asks.Load() != 1 || reads.Load() != 1 {
				t.Fatalf("server saw %d arena requests and %d reads, want 1 and 1", asks.Load(), reads.Load())
			}
		})
	}
}
