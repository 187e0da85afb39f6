package prisma

import (
	"fmt"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// ClusterStats is the public snapshot of one node's fabric traffic.
type ClusterStats struct {
	// Node is this node's ring name; Nodes lists every ring member.
	Node  string
	Nodes []string
	// LocalReads served from this node's own stage (ring-owned samples);
	// PeerReads forwarded to the owning peer's buffer; PeerServes answered
	// here on behalf of peers.
	LocalReads int64
	PeerReads  int64
	PeerServes int64
	// PeerErrors counts failed forwards; Failovers counts reads the slow
	// store served after a peer failure (correctness preserved, economy
	// lost).
	PeerErrors int64
	Failovers  int64
	// PeerWait is cumulative time spent inside successful peer forwards;
	// MaxFailoverLatency is the worst single peer-failure read (peer
	// attempt plus slow-store fallback).
	PeerWait           time.Duration
	MaxFailoverLatency time.Duration
}

func clusterStatsFrom(s distrib.ClusterStats) ClusterStats {
	return ClusterStats{
		Node:               s.Node,
		Nodes:              s.Nodes,
		LocalReads:         s.LocalReads,
		PeerReads:          s.PeerReads,
		PeerServes:         s.PeerServes,
		PeerErrors:         s.PeerErrors,
		Failovers:          s.Failovers,
		PeerWait:           s.PeerWait,
		MaxFailoverLatency: s.MaxFailoverLatency,
	}
}

// errClusterDisabled reports cluster API use on a non-cluster instance.
var errClusterDisabled = fmt.Errorf("prisma: cluster fabric not enabled (set Options.Cluster.Enable)")

// ClusterStats snapshots the fabric's traffic counters: how reads split
// between the local buffer, peer forwards, and slow-store failovers.
func (p *Prisma) ClusterStats() (ClusterStats, error) {
	if p.fabric == nil {
		return ClusterStats{}, errClusterDisabled
	}
	return clusterStatsFrom(p.fabric.Stats()), nil
}

// socketPeer is the real-mode peer transport: a lazily dialed IPC client
// to one peer prisma-server. The first forward dials and identifies the
// connection with a "peer" hello; transport failures surface to the fabric
// (which fails over to the slow store) and the next forward redials
// through the client's own poison-and-redial machinery. A peer that is
// not up yet simply fails forwards until it is — reads still succeed via
// failover, so cluster bring-up order does not matter.
type socketPeer struct {
	sock string
	mu   sync.Mutex
	c    *ipc.Client
}

func newSocketPeer(sock string) *socketPeer { return &socketPeer{sock: sock} }

func (sp *socketPeer) client() (*ipc.Client, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.c != nil {
		return sp.c, nil
	}
	c, err := ipc.Dial(sp.sock)
	if err != nil {
		return nil, err
	}
	// The role marks this connection as node-to-node on the serving side;
	// the empty identity resolves to the default tenant.
	if _, err := c.HelloRole("", "", "peer"); err != nil {
		c.Close()
		return nil, err
	}
	sp.c = c
	return c, nil
}

// PeerRead implements distrib.PeerReader over the socket.
func (sp *socketPeer) PeerRead(name string) (storage.Data, error) {
	c, err := sp.client()
	if err != nil {
		return storage.Data{}, err
	}
	return c.PeerRead(name)
}

func (sp *socketPeer) close() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.c != nil {
		sp.c.Close()
		sp.c = nil
	}
}

// clusterRing builds the placement ring of this node and its peers for
// Open: the stage's plan partitioner and the fabric both read it.
func clusterRing(opts ClusterOptions) (*distrib.Ring, error) {
	nodes := make([]string, 0, len(opts.Peers)+1)
	nodes = append(nodes, opts.NodeID)
	for name := range opts.Peers {
		nodes = append(nodes, name)
	}
	ring, err := distrib.NewRing(nodes, opts.VirtualNodes)
	if err != nil {
		return nil, fmt.Errorf("cluster ring: %w", err)
	}
	return ring, nil
}

// buildFabric assembles the fabric over ring for Open. slow is the fully
// composed backend chain, so failover reads keep resilience, tiering, and
// caching semantics.
func buildFabric(p *Prisma, opts ClusterOptions, ring *distrib.Ring, slow storage.Backend) error {
	fabric, err := distrib.NewFabric(p.env, distrib.FabricConfig{
		Node:   opts.NodeID,
		Ring:   ring,
		Stage:  p.stage,
		Slow:   slow,
		Tracer: p.tracer,
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for name, sock := range opts.Peers {
		sp := newSocketPeer(sock)
		fabric.SetPeer(name, sp)
		p.teardown.push(noErr(sp.close))
	}
	p.fabric = fabric
	return nil
}
