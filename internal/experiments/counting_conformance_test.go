package experiments

import (
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
)

// TestCountingStoreConformance joins the op-counting shard store to the
// storage middleware conformance table (it is unexported, so its row lives
// here).
func TestCountingStoreConformance(t *testing.T) {
	storagetest.Middleware(t, storagetest.Layer{Name: "counting", Build: func(_ *testing.T, _ conc.Env, leaf storage.Backend, _ *mempool.Pool) storagetest.Built {
		return storagetest.Built{Backend: &countingStore{inner: leaf}}
	}})
}
