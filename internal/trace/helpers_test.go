package trace

import "github.com/dsrhaslab/prisma-go/internal/storage"

// readFile issues one read through the read contract.
func readFile(b storage.Backend, name string) (storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name})
	return resp.Data, err
}
