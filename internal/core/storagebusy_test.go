package core

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// vectoredModel is a Coalescer over a modeled backend that puts every
// sample in one container and serves a run with one ranged read — one
// device request — as the pack view serves a run of one shard.
type vectoredModel struct{ *storage.ModeledBackend }

func (v vectoredModel) Locate(string) (string, int64, bool) { return "pack-0", 1, true }

func (v vectoredModel) BatchReader() storage.SampleBatcher { return v }

func (v vectoredModel) ReadSampleBatch(names []string, out []storage.Data) ([]storage.Data, error) {
	ranges := make([]storage.Range, len(names))
	for i, n := range names {
		size, err := v.Size(n)
		if err != nil {
			return out, err
		}
		ranges[i] = storage.Range{N: size}
	}
	resp, err := v.Read(storage.Request{Name: names[0], Ranges: ranges})
	if err != nil {
		return out, err
	}
	for i, d := range resp.Views {
		out = append(out, storage.Data{Name: names[i], Size: d.Size})
	}
	return out, nil
}

// TestStorageBusyIsSumOfReadIntervals pins StorageBusy to the producers'
// read clock: over a device where every request takes exactly one
// latency, it is backend reads × latency and equals StorageReadLatency.Sum.
// With a coalescer, a vectored run is one backend read and counts once.
func TestStorageBusyIsSumOfReadIntervals(t *testing.T) {
	const files, producers, lat = 64, 4, time.Millisecond
	for _, tc := range []struct {
		name  string
		batch int
	}{{"per-sample", 1}, {"coalesced", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(env conc.Env) {
				// More channels than producers: no request queues.
				backend, names := testBackend(env, files, 1000, lat, 2*producers)
				cfg := pfConfig(producers, files)
				if tc.batch > 1 {
					cfg.BatchSamples = tc.batch
					cfg.Coalescer = vectoredModel{backend}
				}
				pf, err := NewPrefetcher(env, backend, testManifest(names, 1000), cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := NewStage(env, backend, pf)
				pf.Start()
				defer st.Close()
				if err := st.SubmitPlan(names); err != nil {
					t.Fatal(err)
				}
				for _, n := range names {
					if _, _, err := st.Read(ReadRequest{Name: n}); err != nil {
						t.Fatal(err)
					}
				}
				s := st.Stats()
				if s.PrefetchedFiles != files {
					t.Fatalf("PrefetchedFiles = %d, want %d", s.PrefetchedFiles, files)
				}
				if tc.batch > 1 && s.BatchReads == 0 {
					t.Fatal("no vectored read issued")
				}
				ops := s.BatchReads + s.PrefetchedFiles - s.BatchedSamples
				if want := time.Duration(ops) * lat; s.StorageBusy != want {
					t.Errorf("StorageBusy = %v, want %d backend reads × %v = %v", s.StorageBusy, ops, lat, want)
				}
				if s.StorageBusy != s.StorageReadLatency.Sum {
					t.Errorf("StorageBusy = %v, StorageReadLatency.Sum = %v", s.StorageBusy, s.StorageReadLatency.Sum)
				}
				if s.StorageReadLatency.Count != ops {
					t.Errorf("StorageReadLatency.Count = %d, want %d backend reads", s.StorageReadLatency.Count, ops)
				}
			})
		})
	}
}
