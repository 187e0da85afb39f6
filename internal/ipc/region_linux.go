//go:build linux && (amd64 || arm64)

package ipc

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// RegionSupported reports which transport this build's read payloads take:
// here a payload region — the server creates one per asking connection,
// and the client asks. It is fixed by the platform; the allocation gate
// reads it to require the region where there is one.
const RegionSupported = true

// memfd and sealing constants that postdate the frozen package syscall.
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	fSealSeal       = 0x1
	fSealShrink     = 0x2
	fSealGrow       = 0x4
)

// newRegion creates a size-byte memfd, seals it against shrinking, growing
// and further sealing, and maps it read-write. The caller passes fd to the
// client, closes it, and unmaps mem when the connection ends. The seals are
// what let both ends touch the mapping without a SIGBUS, whatever the peer
// does with its copy of the descriptor.
func newRegion(size int) (fd int, mem []byte, err error) {
	return newSealedMemfd("prisma-payload", size)
}

// newArena makes a size-byte arena: a sealed memfd as newRegion's, under
// its own name, registered so that clients of this process share its
// mapping. It holds the caller's reference.
func newArena(size int) (*arena, error) {
	fd, mem, err := newSealedMemfd("prisma-arena", size)
	if err != nil {
		return nil, err
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		unmapRegion(mem)
		syscall.Close(fd)
		return nil, fmt.Errorf("arena stat: %w", err)
	}
	a := &arena{fd: fd, mem: mem, id: fileID{dev: uint64(st.Dev), ino: st.Ino}}
	a.register()
	return a, nil
}

// dupFD duplicates a descriptor (close-on-exec) for a grant to carry away.
func dupFD(fd int) (int, error) {
	r, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_DUPFD_CLOEXEC, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(r), nil
}

// newSealedMemfd is newRegion under the given name.
func newSealedMemfd(label string, size int) (fd int, mem []byte, err error) {
	name, _ := syscall.BytePtrFromString(label)
	r, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return -1, nil, fmt.Errorf("memfd_create: %w", errno)
	}
	fd = int(r)
	if err = syscall.Ftruncate(fd, int64(size)); err == nil {
		_, _, errno = syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fAddSeals, fSealShrink|fSealGrow|fSealSeal)
		if errno != 0 {
			err = fmt.Errorf("seal: %w", errno)
		}
	}
	if err == nil {
		mem, err = syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	return fd, mem, nil
}

// mapRegion maps a region or arena descriptor the server passed,
// read-only, after checking that it is sealed against shrinking and growing
// and is exactly size bytes long: a reader of the mapping can then never
// fault. The descriptor of an arena this process made is not mapped again:
// its mapping is returned with the arena, under a reference the caller
// releases. The caller closes fd either way.
func mapRegion(fd, size int) ([]byte, *arena, error) {
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 {
		return nil, nil, fmt.Errorf("region seals: %w", errno)
	}
	if seals&(fSealShrink|fSealGrow) != fSealShrink|fSealGrow {
		return nil, nil, fmt.Errorf("region not sealed against resizing (seals %#x)", seals)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, nil, fmt.Errorf("region stat: %w", err)
	}
	if st.Size != int64(size) {
		return nil, nil, fmt.Errorf("region of %d bytes announced as %d", st.Size, size)
	}
	if a := findArena(fileID{dev: uint64(st.Dev), ino: st.Ino}); a != nil {
		return a.mem, a, nil
	}
	mem, err := syscall.Mmap(fd, 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	return mem, nil, err
}

// sendFD writes a whole reply frame with fd attached as SCM_RIGHTS, then
// closes fd: the peer holds its own copy from here on.
func sendFD(conn net.Conn, frame []byte, fd int) error {
	defer syscall.Close(fd)
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		return errors.New("ipc: descriptor passing needs a UNIX-domain socket")
	}
	n, _, err := uc.WriteMsgUnix(frame, syscall.UnixRights(fd), nil)
	if err == nil && n < len(frame) {
		_, err = conn.Write(frame[n:])
	}
	return err
}

// recvFDs reads into buf like conn.Read and also returns every descriptor
// that rode the bytes read (SCM_RIGHTS); the caller closes them. truncated
// reports control data too large for the room given, whose descriptors the
// kernel closed.
func recvFDs(conn *net.UnixConn, buf []byte) (n int, fds []int, truncated bool, err error) {
	var oob [64]byte // room for the one descriptor expected and a few more, to see them
	n, oobn, flags, _, err := conn.ReadMsgUnix(buf, oob[:])
	if oobn > 0 {
		msgs, perr := syscall.ParseSocketControlMessage(oob[:oobn])
		for i := range msgs {
			if got, rerr := syscall.ParseUnixRights(&msgs[i]); rerr == nil {
				fds = append(fds, got...)
			}
		}
		if perr != nil {
			truncated = true
		}
	}
	return n, fds, truncated || flags&syscall.MSG_CTRUNC != 0, err
}

// closeFDs closes descriptors received with recvFDs.
func closeFDs(fds []int) {
	for _, fd := range fds {
		syscall.Close(fd)
	}
}

// unmapRegion releases a mapping made by newRegion or mapRegion.
func unmapRegion(mem []byte) {
	if mem != nil {
		_ = syscall.Munmap(mem)
	}
}
