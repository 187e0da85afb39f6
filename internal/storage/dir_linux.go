//go:build linux && (amd64 || arm64)

package storage

import (
	"io"
	"os"
	"strings"
	"syscall"
	"unsafe"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// The raw leaf (DESIGN.md §21): openat on the root descriptor, fstat, read
// or pread, close — four syscalls and no heap object for a pooled
// whole-file read. Package os spends nine syscalls and five objects on the
// same file because every *os.File is prepared for the network poller.

// RawDirLeaf reports which body this build's DirBackend runs: the raw one
// in this file, or package os (dir_other.go). It is fixed by the platform;
// the allocation gate reads it to hold only the raw body to zero.
const RawDirLeaf = true

// sysOpenat2 is openat2(2), which postdates the frozen package syscall;
// the number is the same on every architecture this file builds for.
const sysOpenat2 = 437

const (
	atFDCWD           = -0x64    // AT_FDCWD
	atSymlinkNofollow = 0x100    // AT_SYMLINK_NOFOLLOW
	oPath             = 0x200000 // O_PATH
	resolveBeneath    = 0x08     // RESOLVE_BENEATH
	// stackName is the longest name (with its NUL) built on the stack;
	// longer ones, which no generated dataset has, take one allocation.
	stackName = 256
	// againTries bounds the retries of an openat2 that reports EAGAIN: the
	// kernel could not prove a ".." stayed beneath the root because some
	// rename raced the walk.
	againTries = 32
)

// openHow is struct open_how.
type openHow struct {
	flags, mode, resolve uint64
}

// rootDir is the dataset root, opened once.
type rootDir struct {
	fd int
	// beneath reports that openat2(RESOLVE_BENEATH) works here, so a
	// symlink resolving outside the root is refused by the kernel's path
	// walk. Without it (kernel < 5.6, or a seccomp filter answering EPERM)
	// opens are plain openat behind checkName's lexical check.
	beneath bool
}

func openRoot(dir string) (rootDir, error) {
	// The root is opened through open itself, relative to the working
	// directory, which also gives it the EINTR loop.
	fd, errno := rootDir{fd: atFDCWD}.open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY)
	if errno != 0 {
		return rootDir{}, &os.PathError{Op: "open", Path: dir, Err: errno}
	}
	r := rootDir{fd: fd, beneath: true}
	probe, errno := r.open(".", oPath)
	if errno != 0 {
		r.beneath = false
	} else {
		syscall.Close(probe)
	}
	return r, nil
}

func (r rootDir) close() error { return syscall.Close(r.fd) }

// cname NUL-terminates name into stack when it fits.
func cname(name string, stack *[stackName]byte) *byte {
	path := stack[:]
	if len(name) >= len(path) {
		path = make([]byte, len(name)+1)
	}
	copy(path, name)
	return &path[0]
}

// open opens name relative to the root, beneath it where the kernel can
// enforce that.
func (r rootDir) open(name string, flags int) (int, syscall.Errno) {
	var stack [stackName]byte
	path := cname(name, &stack)
	flags |= syscall.O_CLOEXEC
	how := openHow{flags: uint64(flags), resolve: resolveBeneath}
	for again := 0; ; {
		var fd uintptr
		var errno syscall.Errno
		if r.beneath {
			fd, _, errno = syscall.Syscall6(sysOpenat2, uintptr(r.fd), uintptr(unsafe.Pointer(path)), uintptr(unsafe.Pointer(&how)), unsafe.Sizeof(how), 0, 0)
		} else {
			fd, _, errno = syscall.Syscall6(syscall.SYS_OPENAT, uintptr(r.fd), uintptr(unsafe.Pointer(path)), uintptr(flags), 0, 0, 0)
		}
		switch {
		case errno == 0:
			return int(fd), 0
		case errno == syscall.EINTR:
		case errno == syscall.EAGAIN && r.beneath && again < againTries:
			again++
		default:
			return -1, errno
		}
	}
}

// fstat is fstat(2) on an open descriptor.
func fstat(fd int, st *syscall.Stat_t) syscall.Errno {
	for {
		err := syscall.Fstat(fd, st)
		if err == nil {
			return 0
		}
		if err != syscall.EINTR {
			return err.(syscall.Errno)
		}
	}
}

// stat is fstatat(2) on name relative to the root. It has no beneath rule:
// see size for when that is enough.
func (r rootDir) stat(name string, flags int, st *syscall.Stat_t) syscall.Errno {
	var stack [stackName]byte
	path := cname(name, &stack)
	for {
		_, _, errno := syscall.Syscall6(sysFstatat, uintptr(r.fd), uintptr(unsafe.Pointer(path)), uintptr(unsafe.Pointer(st)), uintptr(flags), 0, 0)
		if errno != syscall.EINTR {
			return errno
		}
	}
}

// statBeneath sizes name through the open a read makes — beneath the root,
// O_PATH so no file is opened — then fstat and close.
func (r rootDir) statBeneath(name string, st *syscall.Stat_t) syscall.Errno {
	fd, errno := r.open(name, oPath)
	if errno != 0 {
		return errno
	}
	errno = fstat(fd, st)
	syscall.Close(fd)
	return errno
}

// pathErr types a failed syscall on name: the errnos that mean "no such
// sample" (notExist; EXDEV is RESOLVE_BENEATH refusing an escape) become
// NotExistError, everything else — EMFILE, EACCES, EIO — stays a device
// error the resilient layer may retry.
func pathErr(op, name string, err error) error {
	if err == syscall.EXDEV {
		return &NotExistError{Name: name}
	}
	return notExist(name, &os.PathError{Op: op, Path: name, Err: err})
}

// rawFile is an open descriptor as fill reads it.
type rawFile int

func (f rawFile) ReadAt(p []byte, off int64) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Pread(int(f), p[done:], off+int64(done))
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return done, err
		case n == 0:
			return done, io.EOF
		default:
			done += n
		}
	}
	return done, nil
}

// fetch is the one open/size/read/close sequence behind every request
// class. The descriptor is closed on every path; fill releases the lease
// on every failed read.
func (b *DirBackend) fetch(name string, ranges []Range) (int64, []byte, *mempool.Ref, error) {
	if b.portable {
		return b.fetchPortable(name, ranges)
	}
	fd, errno := b.root.open(name, syscall.O_RDONLY)
	if errno != 0 {
		return 0, nil, nil, pathErr("openat", name, errno)
	}
	var st syscall.Stat_t
	var buf []byte
	var ref *mempool.Ref
	var err error
	switch errno := fstat(fd, &st); {
	case errno != 0:
		err = pathErr("fstat", name, errno)
	case st.Mode&syscall.S_IFMT == syscall.S_IFDIR:
		err = &NotExistError{Name: name}
	default:
		buf, ref, err = fill(rawFile(fd), b.pool, name, ranges, st.Size)
	}
	// Nothing was written through fd, so a failed close loses nothing.
	syscall.Close(fd)
	return st.Size, buf, ref, err
}

// size answers what a read of name would find, so Size and Read agree on
// what exists. One fstatat does that only where it cannot leave the root:
// for a name of one component, not followed if it is itself a link. A link,
// or a name with directories in it (any of which may be a link), goes
// through statBeneath. Without openat2 there is no beneath rule to agree
// with, and one fstatat follows links as the read's openat does.
func (b *DirBackend) size(name string) (int64, error) {
	if b.portable {
		return b.sizePortable(name)
	}
	var st syscall.Stat_t
	var errno syscall.Errno
	switch {
	case !b.root.beneath:
		errno = b.root.stat(name, 0, &st)
	case strings.IndexByte(name, '/') >= 0:
		errno = b.root.statBeneath(name, &st)
	default:
		errno = b.root.stat(name, atSymlinkNofollow, &st)
		if errno == 0 && st.Mode&syscall.S_IFMT == syscall.S_IFLNK {
			errno = b.root.statBeneath(name, &st)
		}
	}
	switch {
	case errno != 0:
		return 0, pathErr("stat", name, errno)
	case st.Mode&syscall.S_IFMT == syscall.S_IFDIR:
		return 0, &NotExistError{Name: name}
	}
	return st.Size, nil
}
