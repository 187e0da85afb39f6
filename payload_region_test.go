package prisma

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
)

// socketDataset generates a dataset of small and large files and returns
// its directory and every file's bytes.
func socketDataset(t *testing.T) (string, map[string][]byte) {
	t.Helper()
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
	return dir, want
}

// stridedSocketEpochs drives the socket path a multi-process loader takes —
// Open, ServeUnix, DialWithOptions, EnablePooledReads, ReadSample — over
// socketDataset with mutate's options, two clients striding each of three
// epochs' plans. Every epoch must deliver every planned entry exactly once
// and byte-identical to its file, with no lease outstanding on the server's
// pool or on either client's between epochs. It returns the server's stats
// and the number of payloads read.
func stridedSocketEpochs(t *testing.T, mutate func(*Options)) (Stats, int64) {
	t.Helper()
	dir, want := socketDataset(t)
	p := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers = 2
		o.InitialBuffer = 32
		if mutate != nil {
			mutate(o)
		}
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
	const epochs = 3
	for epoch := 0; epoch < epochs; epoch++ {
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
			t.FailNow()
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
		// written, and an arena payload's when the client's end-of-plan
		// release arrives; both may trail the client's decode by a moment.
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
	return p.Stats(), int64(epochs * len(want))
}

// TestArenaEndToEnd: without tenancy, every payload a socket client reads
// is read where the producer put it, in the server's shared arena
// (DESIGN.md §29), where this build has one.
func TestArenaEndToEnd(t *testing.T) {
	st, reads := stridedSocketEpochs(t, nil)
	if !ipc.RegionSupported {
		if st.InlinePayloads != reads {
			t.Fatalf("%d of %d payloads inline on a build without shared memory", st.InlinePayloads, reads)
		}
		return
	}
	if st.ArenaPayloads != reads || st.RegionPayloads != 0 || st.InlinePayloads != 0 {
		t.Fatalf("%d payloads in the arena, %d in a region, %d inline; want %d, 0, 0", st.ArenaPayloads, st.RegionPayloads, st.InlinePayloads, reads)
	}
	if st.PoolArenaBytes == 0 || st.PoolArenaCarvedBytes == 0 {
		t.Fatalf("pool reports %d of %d arena bytes carved", st.PoolArenaCarvedBytes, st.PoolArenaBytes)
	}
}

// TestPayloadRegionEndToEnd: a server with tenants keeps a payload region
// per connection (DESIGN.md §28), so every payload crosses in one there.
func TestPayloadRegionEndToEnd(t *testing.T) {
	st, reads := stridedSocketEpochs(t, func(o *Options) {
		o.Tenancy = TenancyOptions{Enable: true, Capacity: 1e9, MaxQueueDepth: -1}
	})
	if !ipc.RegionSupported {
		if st.RegionPayloads != 0 || st.ArenaPayloads != 0 {
			t.Fatalf("%d payloads in a region and %d in an arena on a build without shared memory", st.RegionPayloads, st.ArenaPayloads)
		}
		return
	}
	if st.RegionPayloads != reads || st.ArenaPayloads != 0 || st.InlinePayloads != 0 {
		t.Fatalf("%d payloads in a region, %d in an arena, %d inline; want %d, 0, 0", st.RegionPayloads, st.ArenaPayloads, st.InlinePayloads, reads)
	}
	if st.PoolArenaBytes != 0 {
		t.Fatalf("a tenancy server's pool has an arena of %d bytes", st.PoolArenaBytes)
	}
}

// arenaMappings counts this process's mappings of arenas.
func arenaMappings(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), "memfd:prisma-arena")
}

// TestSampleOutlivesClose: a Sample read in-process from a served instance
// lives in the arena its pool carves from, and stays readable after Close
// until it is released; the arena goes with the last such Sample.
func TestSampleOutlivesClose(t *testing.T) {
	if !ipc.RegionSupported {
		t.Skip("no shared arena on this platform")
	}
	dir, want := socketDataset(t)
	maps := arenaMappings(t)
	p, err := Open(Options{Dir: dir, DisableAutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ServeUnix(filepath.Join(shortTempDir(t), "close.sock")); err != nil {
		t.Fatal(err)
	}
	plan := p.ShuffledFileList(3, 0)[:8]
	if err := p.SubmitPlan(plan); err != nil {
		t.Fatal(err)
	}
	var held []*Sample
	for _, name := range plan {
		s, err := p.ReadSample(name)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	if st := p.Stats(); st.PoolArenaCarvedBytes == 0 {
		t.Fatal("nothing was carved from the arena")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arenaMappings(t); got != maps+1 {
		t.Fatalf("%d arena mappings after Close with samples held, want %d", got, maps+1)
	}
	for _, s := range held {
		if !bytes.Equal(s.Bytes(), want[s.Name]) {
			t.Fatalf("%s: bytes changed after Close", s.Name)
		}
		s.Release()
	}
	if got := arenaMappings(t); got != maps {
		t.Fatalf("%d arena mappings after the last sample was released, want %d", got, maps)
	}
}
