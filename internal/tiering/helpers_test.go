package tiering

import (
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// readFile issues one read through the read contract.
func readFile(b storage.Backend, name string) (storage.Data, error) {
	resp, err := b.Read(storage.Request{Name: name})
	return resp.Data, err
}

// plan is names as the stage hands a plan to the warmer: manifest entries,
// here every one size bytes.
func plan(names []string, size int64) []dataset.Sample {
	out := make([]dataset.Sample, len(names))
	for i, name := range names {
		out[i] = dataset.Sample{Name: name, Size: size}
	}
	return out
}
