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
	name, _ := syscall.BytePtrFromString("prisma-payload")
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

// mapRegion maps a region descriptor the server passed, read-only, after
// checking that it is sealed against shrinking and growing and is exactly
// size bytes long: a reader of the mapping can then never fault. The
// caller closes fd either way.
func mapRegion(fd, size int) ([]byte, error) {
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 {
		return nil, fmt.Errorf("region seals: %w", errno)
	}
	if seals&(fSealShrink|fSealGrow) != fSealShrink|fSealGrow {
		return nil, fmt.Errorf("region not sealed against resizing (seals %#x)", seals)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, fmt.Errorf("region stat: %w", err)
	}
	if st.Size != int64(size) {
		return nil, fmt.Errorf("region of %d bytes announced as %d", st.Size, size)
	}
	return syscall.Mmap(fd, 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
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
