package distrib

import (
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
)

// TestLinkBackendConformance joins the per-node link wrapper to the storage
// middleware conformance table (it is unexported, so its row lives here).
func TestLinkBackendConformance(t *testing.T) {
	storagetest.Middleware(t, storagetest.Layer{Name: "link", Build: func(t *testing.T, env conc.Env, leaf storage.Backend, _ *mempool.Pool) storagetest.Built {
		link, err := storage.NewDevice(env, storage.P4600())
		if err != nil {
			t.Fatal(err)
		}
		return storagetest.Built{Backend: &linkBackend{link: link, inner: leaf}}
	}})
}
