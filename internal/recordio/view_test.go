package recordio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// ctxStore is a shard store that records what reached it.
type ctxStore struct {
	storage.Backend
	calls int
	ctx   obs.Ctx
}

func (s *ctxStore) Read(req storage.Request) (storage.Response, error) {
	s.calls++
	s.ctx = req.Ctx
	return s.Backend.Read(req)
}

// TestIndexedBackendRequestClasses is the pack view's row of the middleware
// conformance table (chain.Layers' top row), which the storage suite cannot
// run: the view serves sample names, not the probe's byte ranges. Whole
// samples come back byte-identical, verbatim or LZ-packed, with the caller's
// trace context at the shard store; a ranged request is refused with
// ErrUnsupported before it reaches the store; an unknown name is a
// NotExistError; no pooled reference is left outstanding.
func TestIndexedBackendRequestClasses(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			names := []string{"a", "b", "c"}
			payloads := [][]byte{bytes.Repeat([]byte("ab"), 3000), bytes.Repeat([]byte{7}, 100), []byte("c")}
			mem := storage.NewMemBackend()
			pool := mempool.New(mempool.Config{Debug: true})
			mem.SetBufferPool(pool)
			ix, err := PackMem(mem, "p/shard-00000.rec", names, payloads, compress)
			if err != nil {
				t.Fatal(err)
			}
			if e, _ := ix.Lookup("a"); (e.Codec == CodecLZ) != compress {
				t.Fatalf("entry a = %+v, want LZ exactly when compressing", e)
			}
			store := &ctxStore{Backend: mem}
			view := NewIndexedBackend(ix, store)
			view.SetBufferPool(pool)
			for i, name := range names {
				ctx := obs.Ctx{Trace: uint64(i + 1), Sampled: true}
				resp, err := view.Read(storage.Request{Name: name, Ctx: ctx})
				if err != nil {
					t.Fatalf("read %s: %v", name, err)
				}
				if !bytes.Equal(resp.Data.Bytes, payloads[i]) || resp.Data.Size != int64(len(payloads[i])) {
					t.Fatalf("read %s: %d bytes differ from the packed payload", name, resp.Data.Size)
				}
				resp.Data.Release()
				if store.ctx != ctx {
					t.Fatalf("read %s: the shard store saw ctx %+v, want %+v", name, store.ctx, ctx)
				}
			}
			calls := store.calls
			_, err = view.Read(storage.Request{Name: "a", Ranges: []storage.Range{{Off: 0, N: 1}}})
			if !errors.Is(err, storage.ErrUnsupported) || store.calls != calls {
				t.Fatalf("ranged read: %v after %d store calls, want ErrUnsupported and none", err, store.calls-calls)
			}
			var ne *storage.NotExistError
			if _, err := view.Read(storage.Request{Name: "ghost"}); !errors.As(err, &ne) {
				t.Fatalf("unknown name: %v, want a NotExistError", err)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d pooled refs outstanding:\n%s", n, mempool.FormatLeaks(pool.Leaks()))
			}
		})
	}
}
