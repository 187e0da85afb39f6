//go:build linux && (amd64 || arm64)

package ipc

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// ArenaSupported reports whether this build passes read payloads in
// shared memory: here a server makes its shared arena, and a client asks
// for it. It is fixed by the platform; the allocation gate reads it to
// require the arena where there is one.
const ArenaSupported = true

// memfd and sealing constants that postdate the frozen package syscall.
const (
	mfdCloexec       = 0x1
	mfdAllowSealing  = 0x2
	fAddSeals        = 1033
	fGetSeals        = 1034
	fSealSeal        = 0x1
	fSealShrink      = 0x2
	fSealGrow        = 0x4
	fSealFutureWrite = 0x10
)

// newArena makes a size-byte arena, registered so that clients of this
// process share its mapping, holding the caller's reference. It is a memfd
// sealed against shrinking and growing, which lets every process that maps
// it touch the mapping without a SIGBUS, whatever a peer does with its copy
// of the descriptor; mapped read-write; and then sealed against writes
// (F_SEAL_FUTURE_WRITE) and further seals. That last seal leaves the
// server's mapping writable and makes every grant read-only: a client can
// neither map its descriptor writable, nor make a read-only mapping
// writable, nor write the file. A kernel that refuses it gets no arena.
func newArena(size int) (*arena, error) {
	name, _ := syscall.BytePtrFromString("prisma-arena")
	r, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	fd := int(r)
	seal := func(seals uintptr) error {
		if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fAddSeals, seals); errno != 0 {
			return fmt.Errorf("seal %#x: %w", seals, errno)
		}
		return nil
	}
	var (
		mem []byte
		st  syscall.Stat_t
	)
	err := syscall.Ftruncate(fd, int64(size))
	if err == nil {
		err = seal(fSealShrink | fSealGrow)
	}
	if err == nil {
		mem, err = syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}
	if err == nil {
		err = seal(fSealFutureWrite | fSealSeal)
	}
	if err == nil {
		err = syscall.Fstat(fd, &st)
	}
	if err != nil {
		unmapShared(mem)
		syscall.Close(fd)
		return nil, fmt.Errorf("arena: %w", err)
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

// mapGrant maps the arena descriptor a server granted read-only, after
// checking that it is sealed against shrinking and growing and is exactly
// size bytes long: a reader of the mapping can then never fault. The
// descriptor of an arena this process made is not mapped again: its
// mapping is returned with the arena, under a reference the caller
// releases. The caller closes fd either way.
func mapGrant(fd, size int) ([]byte, *arena, error) {
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if errno != 0 {
		return nil, nil, fmt.Errorf("grant seals: %w", errno)
	}
	if seals&(fSealShrink|fSealGrow) != fSealShrink|fSealGrow {
		return nil, nil, fmt.Errorf("grant not sealed against resizing (seals %#x)", seals)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, nil, fmt.Errorf("grant stat: %w", err)
	}
	if st.Size != int64(size) {
		return nil, nil, fmt.Errorf("grant of %d bytes announced as %d", st.Size, size)
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

// unmapShared releases a mapping made by newArena or mapGrant.
func unmapShared(mem []byte) {
	if mem != nil {
		_ = syscall.Munmap(mem)
	}
}
