package prisma

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
)

// TestPayloadRegionEndToEnd drives the socket path a multi-process loader
// takes — Open, ServeUnix, DialWithOptions, EnablePooledReads, ReadSample —
// over a real dataset of small and large files, with two clients striding
// each epoch's plan. Every epoch must deliver every planned entry exactly
// once and byte-identical to its file, with no lease outstanding on the
// server's pool or on either client's between epochs; where this build has
// payload regions (DESIGN.md §28), every payload must have crossed in one.
func TestPayloadRegionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	samples := make([]dataset.Sample, 96)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("train/%04d.bin", i), Size: int64(1024 + i*i*37%(300<<10))}
	}
	if err := dataset.Generate(dir, dataset.MustNew(samples), 7); err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte, len(samples))
	for _, s := range samples {
		b, err := os.ReadFile(filepath.Join(dir, s.Name))
		if err != nil {
			t.Fatal(err)
		}
		want[s.Name] = b
	}
	p := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers = 2
		o.InitialBuffer = 32
	})
	sock := filepath.Join(shortTempDir(t), "region.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, 2)
	for i := range clients {
		c, err := DialWithOptions(sock, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnablePooledReads(BufferPoolOptions{})
		clients[i] = c
	}
	for epoch := 0; epoch < 3; epoch++ {
		plan := p.ShuffledFileList(11, epoch)
		id, n, err := clients[0].SubmitEpoch(plan)
		if err != nil || n != len(plan) {
			t.Fatalf("epoch %d: SubmitEpoch enqueued %d of %d: %v", epoch, n, len(plan), err)
		}
		var (
			mu   sync.Mutex
			seen = make(map[string]int, len(plan))
			wg   sync.WaitGroup
		)
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *Client) {
				defer wg.Done()
				for i := ci; i < len(plan); i += len(clients) {
					s, err := c.ReadSample(plan[i])
					if err != nil {
						t.Errorf("epoch %d: ReadSample(%s): %v", epoch, plan[i], err)
						return
					}
					if s.Name != plan[i] || s.Size != int64(len(want[plan[i]])) || !bytes.Equal(s.Bytes(), want[plan[i]]) {
						t.Errorf("epoch %d: %s delivered %s, %d bytes: not the file's", epoch, plan[i], s.Name, len(s.Bytes()))
					}
					s.Release()
					mu.Lock()
					seen[plan[i]]++
					mu.Unlock()
				}
			}(ci, c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, name := range plan {
			if seen[name] != 1 {
				t.Fatalf("epoch %d: %s delivered %d times", epoch, name, seen[name])
			}
		}
		for _, e := range p.Epochs() {
			if e.ID == id && (e.Delivered != int64(e.Total) || e.State != "done") {
				t.Fatalf("epoch %d: %+v, want every entry delivered", epoch, e)
			}
		}
		// The server drops an inline payload's lease once the reply is
		// written, which may trail the client's decode by a moment.
		deadline := time.Now().Add(2 * time.Second)
		for p.Stats().PoolOutstanding != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := p.Stats().PoolOutstanding; got != 0 {
			t.Fatalf("epoch %d: %d server leases outstanding between epochs", epoch, got)
		}
		for ci, c := range clients {
			if got := c.pool.Stats().Outstanding; got != 0 {
				t.Fatalf("epoch %d: client %d holds %d leases between epochs", epoch, ci, got)
			}
		}
	}
	st := p.Stats()
	if ipc.RegionSupported {
		if st.RegionPayloads != 3*int64(len(samples)) || st.InlinePayloads != 0 {
			t.Fatalf("%d payloads in a region and %d inline, want %d and 0", st.RegionPayloads, st.InlinePayloads, 3*len(samples))
		}
	} else if st.RegionPayloads != 0 {
		t.Fatalf("%d payloads in a region on a build without regions", st.RegionPayloads)
	}
}
