package recordio

import "github.com/dsrhaslab/prisma-go/internal/storage"

// readFile and readRange issue one request of each class through the read contract, for
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
