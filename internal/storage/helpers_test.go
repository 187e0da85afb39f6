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

// readFile, readRange and readBatch issue one request of each class
// through the read contract, for tests that exercise a single class.
func readFile(b Backend, name string) (Data, error) {
	resp, err := b.Read(Request{Name: name})
	return resp.Data, err
}

func readRange(b Backend, name string, off, n int64) (Data, error) {
	resp, err := b.Read(Request{Name: name, Ranges: []Range{{Off: off, N: n}}})
	if err != nil {
		return Data{}, err
	}
	return resp.Views[0], nil
}

func readBatch(b Backend, name string, ranges []Range, out []Data) ([]Data, error) {
	resp, err := b.Read(Request{Name: name, Ranges: ranges, Out: out})
	if err != nil {
		return out, err
	}
	return resp.Views, nil
}
