package core

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// TestStorageBusyIsSumOfReadIntervals pins StorageBusy to the producers'
// read clock: over a device where every request takes exactly one
// latency, it is backend reads × latency and equals StorageReadLatency.Sum.
func TestStorageBusyIsSumOfReadIntervals(t *testing.T) {
	const files, producers, lat = 64, 4, time.Millisecond
	runSim(t, func(env conc.Env) {
		// More channels than producers: no request queues.
		backend, names := testBackend(env, files, 1000, lat, 2*producers)
		st, err := NewStage(env, backend, testManifest(names, 1000), pfConfig(producers, files))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
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
		if want := time.Duration(files) * lat; s.StorageBusy != want {
			t.Errorf("StorageBusy = %v, want %d backend reads × %v = %v", s.StorageBusy, files, lat, want)
		}
		if s.StorageBusy != s.StorageReadLatency.Sum {
			t.Errorf("StorageBusy = %v, StorageReadLatency.Sum = %v", s.StorageBusy, s.StorageReadLatency.Sum)
		}
		if s.StorageReadLatency.Count != files {
			t.Errorf("StorageReadLatency.Count = %d, want %d backend reads", s.StorageReadLatency.Count, files)
		}
	})
}
