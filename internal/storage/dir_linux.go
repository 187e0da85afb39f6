//go:build linux && (amd64 || arm64)

package storage

import (
	"io"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// The raw leaf (DESIGN.md §21): openat on the root descriptor, fstat, read
// or pread, close — four syscalls and no heap object for a pooled
// whole-file read. Package os spends nine syscalls and five objects on the
// same file because every *os.File is prepared for the network poller. A
// manifest file's later whole-file reads are one preadv on the descriptor
// its first read pinned (DESIGN.md §24).

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

// fetch is the one open/size/read/close sequence behind every read. A
// manifest file's descriptor is pinned instead of closed after a
// good read, and its later reads start from there (readPinned); every other
// descriptor is closed on every path. The pin is looked up first — hint is
// the request's manifest slot — because a pinned name is spelled as the
// manifest spells it; any other name passes checkName before it is opened.
// fill releases the lease on every failed read.
func (b *DirBackend) fetch(name string, hint int) (int64, []byte, *mempool.Ref, error) {
	if b.portable {
		return b.fetchPortable(name)
	}
	slot, p := b.pinned(name, hint)
	if p != 0 {
		return b.readPinned(name, p)
	}
	if err := checkName(name); err != nil {
		return 0, nil, nil, err
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
		buf, ref, err = fill(rawFile(fd), b.pool, name, st.Size)
	}
	if err != nil || slot < 0 || !b.pin(slot, fd, st.Size) {
		// Nothing was written through fd, so a failed close loses nothing.
		syscall.Close(fd)
	}
	return st.Size, buf, ref, err
}

// Pinned descriptors (DESIGN.md §24). A slot packs a descriptor and the
// size fstat gave its file when it was pinned: fd+1 in the low 32 bits, so
// an empty slot is zero, and the size in the high 32. A file of 4 GiB or
// more records unsized and is sized by fstat on every read.
const (
	pinFDMask = 1<<32 - 1
	unsized   = 1<<32 - 1
)

func packPin(fd int, size int64) uint64 {
	if size >= unsized {
		size = unsized
	}
	return uint64(size)<<32 | uint64(fd+1)
}

func pinnedFD(p uint64) int { return int(p&pinFDMask) - 1 }

// pinsHeld counts the descriptors every DirBackend in the process holds
// pinned; pinBudget caps it at half the soft RLIMIT_NOFILE, read whenever
// a leaf is given a manifest (after Go's start-up raise of the limit, and
// after any later change to it). The budget is per process because the
// descriptor table is: per-leaf budgets let a few leaves over one large
// dataset exhaust it, and then reads failed with EMFILE. Past the budget a
// read takes the open/close path, so pinning never makes a read fail, and
// nothing is ever evicted.
var pinsHeld, pinBudget atomic.Int64

func refreshPinBudget() {
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) == nil {
		pinBudget.Store(int64(min(lim.Cur/2, 1<<62)))
	}
}

// pinned returns name's slot and what it holds. The slot is -1 when name
// cannot be pinned: the leaf has no manifest, or name is not spelled as
// the manifest spells it — so a hostile, aliased or unplanned name is
// never pinned. hint is the caller's slot + 1 for name (0: none); it saves
// the manifest lookup only when name is the manifest's own string at that
// slot — the same bytes in memory, which the stage hands down for every
// name it resolved — so the check is a pointer compare, and a wrong hint
// or a copy of the name costs the lookup, never a wrong file.
func (b *DirBackend) pinned(name string, hint int) (slot int, p uint64) {
	if b.names == nil {
		return -1, 0
	}
	i := hint - 1
	if i < 0 || i >= b.names.Len() || !sameString(b.names.Names().Name(i), name) {
		var ok bool
		if i, ok = b.names.Index(name); !ok {
			return -1, 0
		}
	}
	return i, b.pins[i].Load()
}

// sameString reports whether a and b are one string: the same bytes in
// memory, not merely equal ones.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// pin publishes fd, whose file had size bytes, into slot, and reports
// whether it did: not when the budget is spent, nor when a racing read
// pinned the slot first. The caller closes fd when pin reports false.
func (b *DirBackend) pin(slot, fd int, size int64) bool {
	if pinsHeld.Add(1) > pinBudget.Load() || !b.pins[slot].CompareAndSwap(0, packPin(fd, size)) {
		pinsHeld.Add(-1)
		return false
	}
	return true
}

// unpinAll closes every pinned descriptor. Close calls it holding the gate
// exclusively, so no read is using one.
func (b *DirBackend) unpinAll() {
	for i := range b.pins {
		if p := b.pins[i].Swap(0); p != 0 {
			syscall.Close(pinnedFD(p))
			pinsHeld.Add(-1)
		}
	}
}

// readPinned serves a read of a pinned file: one preadv (readSized). A
// file of unknown size, or one that has grown or shrunk since it was
// pinned, is sized with fstat and read as an unpinned read is, so the size
// is still the kernel's at read time.
func (b *DirBackend) readPinned(name string, p uint64) (int64, []byte, *mempool.Ref, error) {
	fd := pinnedFD(p)
	if size := int64(p >> 32); size != unsized {
		buf, ref := region(b.pool, size)
		if readSized(fd, buf) {
			return size, buf, ref, nil
		}
		if ref != nil {
			ref.Release()
		}
	}
	var st syscall.Stat_t
	if errno := fstat(fd, &st); errno != 0 {
		return 0, nil, nil, pathErr("fstat", name, errno)
	}
	buf, ref, err := fill(rawFile(fd), b.pool, name, st.Size)
	return st.Size, buf, ref, err
}

// readSized reads the file behind fd into buf from offset 0, with a
// one-byte probe behind buf in the same preadv, and reports whether the
// file is exactly len(buf) bytes: it is when buf filled and the probe did
// not. A failed or short read reports false too.
func readSized(fd int, buf []byte) bool {
	var probe byte
	iov := [2]syscall.Iovec{{}, {Base: &probe}}
	if len(buf) > 0 {
		iov[0].Base = &buf[0]
	}
	iov[0].SetLen(len(buf))
	iov[1].SetLen(1)
	n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, uintptr(fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)), 0, 0, 0)
	return errno == 0 && int(n) == len(buf)
}

// size answers what a read of name would find, so Size and Read agree on
// what exists: a pinned name is the pinned file. Otherwise one fstatat
// does that only where it cannot leave the root: for a name of one
// component, not followed if it is itself a link. A link, or a name with
// directories in it (any of which may be a link), goes through
// statBeneath. Without openat2 there is no beneath rule to agree with, and
// one fstatat follows links as the read's openat does.
func (b *DirBackend) size(name string) (int64, error) {
	if b.portable {
		return b.sizePortable(name)
	}
	var st syscall.Stat_t
	var errno syscall.Errno
	switch _, p := b.pinned(name, 0); {
	case p != 0:
		errno = fstat(pinnedFD(p), &st)
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
