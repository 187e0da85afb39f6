package ipc

import (
	"sync"
	"unsafe"
)

// arena is a server's shared arena (DESIGN.md §29): one sealed memfd whose
// read-write mapping the stage's buffer pool carves its buffers from, so
// the producers read payloads straight into memory every client that asks
// is granted. A client in the process that made it shares that mapping
// instead of making its own (mapRegion), so a page is mapped — and counted
// in the process's resident set — once.
type arena struct {
	fd  int    // kept for the grants, which pass duplicates of it
	mem []byte // the read-write mapping
	id  fileID
	// refs is guarded by arenasMu: one for the server's pool, which lets go
	// once it is detached and its last carved buffer is home, one for the
	// server, which lets go once its handlers are done, and one per client
	// connection of this process that maps it. The last one unmaps it and
	// closes fd.
	refs int
}

// fileID names a file by device and inode, which a descriptor passed
// between processes keeps.
type fileID struct{ dev, ino uint64 }

// arenas are the arenas this process made, by file, so a client handed the
// descriptor of one of them shares its mapping.
var (
	arenasMu sync.Mutex
	arenas   = map[fileID]*arena{}
)

// register records a new arena under its file and its first reference.
func (a *arena) register() {
	arenasMu.Lock()
	a.refs = 1
	arenas[a.id] = a
	arenasMu.Unlock()
}

// findArena returns this process's arena with the given file, with a new
// reference the caller releases, or nil when the file is no arena of this
// process's.
func findArena(id fileID) *arena {
	arenasMu.Lock()
	defer arenasMu.Unlock()
	a := arenas[id]
	if a != nil {
		a.refs++
	}
	return a
}

// retain adds a reference for another holder, who releases it.
func (a *arena) retain() {
	arenasMu.Lock()
	a.refs++
	arenasMu.Unlock()
}

// release drops one reference; the last unmaps the arena and closes its
// descriptor.
func (a *arena) release() {
	arenasMu.Lock()
	a.refs--
	last := a.refs == 0
	if last {
		delete(arenas, a.id)
	}
	arenasMu.Unlock()
	if last {
		unmapRegion(a.mem)
		closeFDs([]int{a.fd})
	}
}

// offset reports where b starts in the arena, when all of it lies inside:
// b may be any view of a carved buffer, so the offset is pointer arithmetic
// rather than anything the buffer's lease records.
func (a *arena) offset(b []byte) (int, bool) {
	if len(b) == 0 || len(a.mem) == 0 {
		return 0, false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(a.mem)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if len(b) > len(a.mem) || p < base || p-base > uintptr(len(a.mem)-len(b)) {
		return 0, false
	}
	return int(p - base), true
}
