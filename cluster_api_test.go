package prisma

// Real-mode cluster fabric tests: two prisma-server instances on loopback
// UNIX sockets, consistent-hash placement, peer forwarding over OpPeerRead,
// and slow-store failover when a peer dies — the socket-transport twin of
// the deterministic sim harness in internal/distrib. Plus the cluster
// overhead gate: a single-node instance with the fabric compiled in but
// effectively idle must stay within 5% of a fabric-free instance.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// clusterNode is one real-mode node: a Prisma instance serving a socket.
type clusterNode struct {
	p    *Prisma
	sock string
	name string
}

// startClusterNodes opens n instances over one shared dataset dir, each
// serving its own socket, with all-to-all peer wiring. The caller reads
// through node[i].p; forwards ride the sockets.
func startClusterNodes(t *testing.T, dir string, n int, mutate func(*Options)) []clusterNode {
	t.Helper()
	sockDir := t.TempDir()
	names := make([]string, n)
	socks := make([]string, n)
	for i := range names {
		names[i] = "node-" + string(rune('0'+i))
		socks[i] = filepath.Join(sockDir, names[i]+".sock")
	}
	nodes := make([]clusterNode, n)
	for i := range nodes {
		peers := make(map[string]string)
		for j := range names {
			if j != i {
				peers[names[j]] = socks[j]
			}
		}
		opts := Options{
			Dir:             dir,
			DisableAutoTune: true,
			Cluster: ClusterOptions{
				Enable: true,
				NodeID: names[i],
				Peers:  peers,
			},
		}
		if mutate != nil {
			mutate(&opts)
		}
		p, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ServeUnix(socks[i]); err != nil {
			p.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		nodes[i] = clusterNode{p: p, sock: socks[i], name: names[i]}
	}
	return nodes
}

// Two nodes on loopback sockets: the full epoch plan is submitted to both
// (each prefetches only its owned subsequence), one consumer sweeps the
// epoch through node 0, and every non-owned sample arrives via an
// OpPeerRead forward from node 1's buffer — no duplicate backend reads, no
// failovers.
func TestClusterLoopbackForwarding(t *testing.T) {
	const files = 60
	dir := makeDataset(t, files)
	nodes := startClusterNodes(t, dir, 2, nil)
	p0, p1 := nodes[0].p, nodes[1].p

	full := p0.ShuffledFileList(7, 0)
	for _, n := range nodes {
		if err := n.p.SubmitPlan(full); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range full {
		got, err := p0.Read(name)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Read(%s): payload mismatch (%d vs %d bytes)", name, len(got), len(want))
		}
	}

	st0, err := p0.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	st1, err := p1.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.LocalReads+st0.PeerReads != files {
		t.Fatalf("node-0 local %d + peer %d != %d", st0.LocalReads, st0.PeerReads, files)
	}
	if st0.LocalReads == 0 || st0.PeerReads == 0 {
		t.Fatalf("degenerate split: local %d, peer %d", st0.LocalReads, st0.PeerReads)
	}
	if st1.PeerServes != st0.PeerReads {
		t.Fatalf("node-1 served %d forwards, node-0 sent %d", st1.PeerServes, st0.PeerReads)
	}
	if st0.Failovers != 0 || st0.PeerErrors != 0 {
		t.Fatalf("healthy cluster recorded failovers=%d peerErrors=%d", st0.Failovers, st0.PeerErrors)
	}
	// Clairvoyant economy over the real transport: each node's stage served
	// exactly its owned subsequence from its buffer — one backend read per
	// sample cluster-wide.
	s0, s1 := p0.Stats(), p1.Stats()
	if s0.Hits != st0.LocalReads {
		t.Fatalf("node-0 buffer hits %d, want %d (owned reads)", s0.Hits, st0.LocalReads)
	}
	if s1.Hits != st1.PeerServes {
		t.Fatalf("node-1 buffer hits %d, want %d (forwarded serves)", s1.Hits, st1.PeerServes)
	}
	if s0.PrefetchedFiles+s1.PrefetchedFiles != files {
		t.Fatalf("cluster prefetched %d files, want %d (zero duplicates)",
			s0.PrefetchedFiles+s1.PrefetchedFiles, files)
	}
}

// Socket clients get the same ownership routing as in-process readers:
// OpRead on node 0's socket forwards non-owned samples to node 1's buffer
// through the read router.
func TestClusterSocketClientForwarding(t *testing.T) {
	const files = 48
	dir := makeDataset(t, files)
	nodes := startClusterNodes(t, dir, 2, nil)
	p0, p1 := nodes[0].p, nodes[1].p

	full := p0.ShuffledFileList(11, 0)
	for _, n := range nodes {
		if err := n.p.SubmitPlan(full); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(nodes[0].sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range full {
		got, err := c.Read(name)
		if err != nil {
			t.Fatalf("client Read(%s): %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("client Read(%s): payload mismatch", name)
		}
	}

	st0, err := p0.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	st1, err := p1.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.LocalReads+st0.PeerReads != files {
		t.Fatalf("node-0 local %d + peer %d != %d", st0.LocalReads, st0.PeerReads, files)
	}
	if st0.PeerReads == 0 {
		t.Fatal("socket-client reads never forwarded to the owner")
	}
	if st1.PeerServes != st0.PeerReads {
		t.Fatalf("node-1 served %d forwards, node-0 sent %d", st1.PeerServes, st0.PeerReads)
	}
	if st0.Failovers != 0 || st0.PeerErrors != 0 {
		t.Fatalf("healthy cluster recorded failovers=%d peerErrors=%d", st0.Failovers, st0.PeerErrors)
	}
	s0, s1 := p0.Stats(), p1.Stats()
	if s0.PrefetchedFiles+s1.PrefetchedFiles != files {
		t.Fatalf("cluster prefetched %d files, want %d (zero duplicates)",
			s0.PrefetchedFiles+s1.PrefetchedFiles, files)
	}
}

// The /cluster admin endpoint and prisma_cluster_* metrics expose the
// fabric snapshot; non-cluster instances answer 501.
func TestClusterAdminSurfaces(t *testing.T) {
	const files = 24
	dir := makeDataset(t, files)
	nodes := startClusterNodes(t, dir, 2, nil)
	p0 := nodes[0].p

	full := p0.ShuffledFileList(3, 0)
	for _, n := range nodes {
		if err := n.p.SubmitPlan(full); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range full {
		if _, err := p0.Read(name); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(p0.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /cluster: %d", resp.StatusCode)
	}
	var snap struct {
		Node       string   `json:"node"`
		Nodes      []string `json:"nodes"`
		LocalReads int64    `json:"local_reads"`
		PeerReads  int64    `json:"peer_reads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Node != "node-0" || len(snap.Nodes) != 2 {
		t.Fatalf("cluster snapshot: %+v", snap)
	}
	if snap.LocalReads+snap.PeerReads != files {
		t.Fatalf("snapshot reads %d+%d, want %d", snap.LocalReads, snap.PeerReads, files)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"prisma_cluster_enabled 1",
		"prisma_cluster_nodes 2",
		"prisma_cluster_peer_reads_total",
		"prisma_cluster_local_reads_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A fabric-free instance rejects the endpoint and reports the gauge off.
	plain := open(t, dir, nil)
	psrv := httptest.NewServer(plain.AdminHandler())
	defer psrv.Close()
	presp, err := psrv.Client().Get(psrv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != 501 {
		t.Fatalf("non-cluster GET /cluster: %d, want 501", presp.StatusCode)
	}
	if _, err := plain.ClusterStats(); err == nil {
		t.Fatal("ClusterStats on a non-cluster instance succeeded")
	}
}

// Killing a peer mid-epoch: reads of its samples fail over to the shared
// slow store within the consumer deadline, correctness intact.
func TestClusterLoopbackFailover(t *testing.T) {
	const files = 40
	dir := makeDataset(t, files)
	nodes := startClusterNodes(t, dir, 2, func(o *Options) {
		o.ConsumerDeadline = 2 * time.Second
	})
	p0 := nodes[0].p

	// Node 1 dies before serving anything; only node 0 gets a plan.
	nodes[1].p.Close()
	full := p0.ShuffledFileList(5, 0)
	if err := p0.SubmitPlan(full); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, name := range full {
		got, err := p0.Read(name)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Read(%s): payload mismatch", name)
		}
	}
	elapsed := time.Since(start)

	st0, err := p0.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st0.Failovers == 0 {
		t.Fatal("no failovers despite a dead peer")
	}
	if st0.Failovers != st0.PeerErrors {
		t.Fatalf("failovers %d != peer errors %d", st0.Failovers, st0.PeerErrors)
	}
	if st0.LocalReads+st0.Failovers != files {
		t.Fatalf("local %d + failover %d != %d", st0.LocalReads, st0.Failovers, files)
	}
	if st0.PeerReads != 0 {
		t.Fatalf("dead peer served %d forwards", st0.PeerReads)
	}
	// Failed dials surface immediately (connection refused, no take
	// deadline involved), so the whole sweep finishes promptly.
	if elapsed > 30*time.Second {
		t.Fatalf("failover sweep took %v", elapsed)
	}
}

// runClusterSweep submits one epoch and reads it back through p, returning
// the makespan.
func runClusterSweep(t *testing.T, p *Prisma, seed int64) time.Duration {
	t.Helper()
	full := p.ShuffledFileList(seed, 0)
	start := time.Now()
	if err := p.SubmitPlan(full); err != nil {
		t.Fatal(err)
	}
	for _, name := range full {
		s, err := p.ReadSample(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	return time.Since(start)
}

// TestClusterOverheadGate: a single-node instance with the cluster fabric
// compiled in and enabled (one-node ring, no peers — every read routes
// through the fabric but stays local) must stay within 5% of a fabric-free
// instance on an identical planned epoch sweep. Best paired ratio over
// interleaved rounds, like the tracing and serving-chain gates.
func TestClusterOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped with -short")
	}
	// 2000 files, not fewer: a sweep is ~5 µs per file since the leaf went
	// raw, and windows of a couple of milliseconds put more noise into the
	// ratio than the budget allows.
	const (
		files  = 2000
		rounds = 5
	)
	dir := makeDataset(t, files)
	plain := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers = 4
		o.InitialBuffer = 64
	})
	fabric := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers = 4
		o.InitialBuffer = 64
		o.Cluster = ClusterOptions{Enable: true, NodeID: "solo"}
	})

	runClusterSweep(t, plain, 1) // warm up both paths
	runClusterSweep(t, fabric, 1)

	ratio := float64(1 << 62)
	var base, fab time.Duration
	for i := 0; i < rounds; i++ {
		seed := int64(i + 2)
		p := runClusterSweep(t, plain, seed)
		d := runClusterSweep(t, fabric, seed)
		if r := float64(d) / float64(p); r < ratio {
			ratio, base, fab = r, p, d
		}
	}
	t.Logf("plain %v, fabric %v, ratio %.4f", base, fab, ratio)
	if ratio > 1.05 {
		t.Errorf("idle cluster fabric costs %.1f%% on the planned sweep (budget 5%%): plain %v, fabric %v",
			(ratio-1)*100, base, fab)
	}
}
