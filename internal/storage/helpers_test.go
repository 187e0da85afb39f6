package storage

import (
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
)

// openDir opens a DirBackend over dir, closed when the test ends.
func openDir(t testing.TB, dir string) *DirBackend {
	t.Helper()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// pinManifest gives b the manifest of its own directory, as Open does.
func pinManifest(t testing.TB, b *DirBackend) {
	t.Helper()
	m, err := dataset.FromDir(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	b.SetManifest(m)
}

// pinnedCount counts the descriptors b holds pinned.
func pinnedCount(b *DirBackend) int {
	n := 0
	for i := range b.pins {
		if b.pins[i].Load() != 0 {
			n++
		}
	}
	return n
}

// readFile issues one read through the read contract.
func readFile(b Backend, name string) (Data, error) {
	resp, err := b.Read(Request{Name: name})
	return resp.Data, err
}
