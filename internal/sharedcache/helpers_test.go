package sharedcache

import "github.com/dsrhaslab/prisma-go/internal/storage"

// readFile, readRange and readBatch issue one request of each class through the read contract, for
// tests that exercise a single class.
func readFile(b storage.Backend, name string) (storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name})
	return resp.Data, err
}

func readRange(b storage.Backend, name string, off, n int64) (storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name, Ranges: []storage.Range{{Off: off, N: n}}})
	if err != nil {
		return storage.Data{}, err
	}
	return resp.Views[0], nil
}

func readBatch(b storage.Backend, name string, ranges []storage.Range, out []storage.Data) ([]storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name, Ranges: ranges, Out: out})
	if err != nil {
		return out, err
	}
	return resp.Views, nil
}
