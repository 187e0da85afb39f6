//go:build !(linux && (amd64 || arm64))

package storage

import (
	"os"
	"syscall"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
)

// RawDirLeaf is false here: reads go through package os (see dir_linux.go).
const RawDirLeaf = false

// rootDir holds nothing where reads go through package os by path.
type rootDir struct{}

// openRoot only checks that dir is a directory, so a bad root fails at
// construction here as it does where the root is really opened.
func openRoot(dir string) (rootDir, error) {
	info, err := os.Stat(dir)
	if err == nil && !info.IsDir() {
		err = &os.PathError{Op: "open", Path: dir, Err: syscall.ENOTDIR}
	}
	return rootDir{}, err
}

func (rootDir) close() error { return nil }

// Nothing is pinned where reads go through package os.
func refreshPinBudget()       {}
func (*DirBackend) unpinAll() {}

func (b *DirBackend) fetch(name string, _ int) (int64, []byte, *mempool.Ref, error) {
	return b.fetchPortable(name)
}

func (b *DirBackend) size(name string) (int64, error) { return b.sizePortable(name) }
