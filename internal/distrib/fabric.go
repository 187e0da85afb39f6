package distrib

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// PeerReader is the transport a Fabric uses to forward a read to the
// sample's owner node. *ipc.Client satisfies it (OpPeerRead over the UNIX
// socket); the cluster test harness uses an in-process transport that calls
// the owner fabric's Read with Peer set.
type PeerReader interface {
	PeerRead(name string) (storage.Data, error)
}

// FabricConfig wires one node's Fabric.
type FabricConfig struct {
	// Node is this node's id; it must be a member of Ring.
	Node string
	// Ring is the cluster's consistent-hash placement. Its membership is
	// fixed when NewRing builds it, so routing and plan partitioning read
	// it without a lock and always agree.
	Ring *Ring
	// Stage is the node's local data plane.
	Stage *core.Stage
	// Slow is the shared slow store every node can reach directly — the
	// failover path when a peer is unreachable.
	Slow storage.Backend
	// Tracer records peer-read / peer-serve spans (nil = no tracing).
	Tracer *obs.Tracer
}

// ClusterStats is one node's view of the fabric's traffic.
type ClusterStats struct {
	Node  string   `json:"node"`
	Nodes []string `json:"nodes"`

	// LocalReads were owned by this node and served by its own stage.
	LocalReads int64 `json:"local_reads"`
	// PeerReads were owned elsewhere and forwarded to the owner.
	PeerReads int64 `json:"peer_reads"`
	// PeerServes is the owner-side count: forwarded reads this node served
	// from its buffer on behalf of peers.
	PeerServes int64 `json:"peer_serves"`
	// PeerErrors counts forwarded reads whose peer transport failed.
	PeerErrors int64 `json:"peer_errors"`
	// Failovers counts reads served directly from the slow store after a
	// peer failure (every PeerError becomes either a Failover or an error).
	Failovers int64 `json:"failovers"`
	// PeerWait is cumulative time spent in successful forwarded reads.
	PeerWait time.Duration `json:"peer_wait"`
	// MaxFailoverLatency is the worst observed peer-failure read: from the
	// forwarded read's start to the slow-store fallback's completion. The
	// blackout chaos suite gates this against the read deadline.
	MaxFailoverLatency time.Duration `json:"max_failover_latency"`
}

// Fabric is one node's router in the multi-node prefetch fabric: reads of
// samples this node owns (by consistent-hash placement) go to the local
// stage; reads owned by a peer are forwarded to that peer's buffer; peer
// failures fail over to the shared slow store. Its stage is built with the
// ring's partitioner for the node (Ring.Partitioner), so each node
// prefetches exactly the samples it will serve (clairvoyant placement — the
// epoch plan reveals the full access order), and cross-node traffic hits
// warm buffers instead of duplicating slow-store reads.
type Fabric struct {
	env    conc.Env
	node   string
	stage  *core.Stage
	slow   storage.Backend
	tracer *obs.Tracer

	ring *Ring // immutable

	mu    conc.Mutex
	peers map[string]PeerReader

	localReads *metrics.Counter
	peerReads  *metrics.Counter
	peerServes *metrics.Counter
	peerErrors *metrics.Counter
	failovers  *metrics.Counter

	waitMu          conc.Mutex
	peerWait        time.Duration
	maxFailoverWait time.Duration
}

// NewFabric builds a node's fabric router.
func NewFabric(env conc.Env, cfg FabricConfig) (*Fabric, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("distrib: fabric needs a node id")
	}
	if cfg.Ring == nil || cfg.Ring.Size() == 0 {
		return nil, fmt.Errorf("distrib: fabric needs a non-empty ring")
	}
	if cfg.Stage == nil {
		return nil, fmt.Errorf("distrib: fabric needs a stage")
	}
	if cfg.Slow == nil {
		return nil, fmt.Errorf("distrib: fabric needs a slow store for failover")
	}
	f := &Fabric{
		env:        env,
		node:       cfg.Node,
		stage:      cfg.Stage,
		slow:       cfg.Slow,
		tracer:     cfg.Tracer,
		mu:         env.NewMutex(),
		ring:       cfg.Ring,
		peers:      make(map[string]PeerReader),
		localReads: metrics.NewCounter(env),
		peerReads:  metrics.NewCounter(env),
		peerServes: metrics.NewCounter(env),
		peerErrors: metrics.NewCounter(env),
		failovers:  metrics.NewCounter(env),
		waitMu:     env.NewMutex(),
	}
	return f, nil
}

// Node reports this fabric's node id.
func (f *Fabric) Node() string { return f.node }

// Stage exposes the local data plane.
func (f *Fabric) Stage() *core.Stage { return f.stage }

// SetPeer installs (or replaces) the transport to a peer node.
func (f *Fabric) SetPeer(node string, p PeerReader) {
	f.mu.Lock()
	f.peers[node] = p
	f.mu.Unlock()
}

// Read is the fabric's one read and the one place the routing policy lives
// (DESIGN.md §20). A read forwarded here by a peer (req.Peer) is the
// owner-side serve. A named tenant's read, and any read of a name this node
// owns, goes to the local stage with the request intact — tenant included,
// so the gate admits and charges it exactly as it would without a fabric;
// named tenants stay local because admission is per node, and forwarding
// them would leave the owner to serve a tenant it never admitted. Only an
// untagged (default-tenant) read of a name owned elsewhere leaves the node:
// forwarded to the owner's buffer, or served from the slow store when that
// fails — neither of which is charged to anyone, on either side.
//
// The request's trace context passes through untouched: the stage draws the
// head sample for a read it serves, and the fabric draws only on the branch
// that records a span of its own. The PlanPos is zero on every path — a
// routed connection receives no socket read-ahead.
func (f *Fabric) Read(req core.ReadRequest) (storage.Data, core.PlanPos, error) {
	if req.Peer {
		return f.servePeer(req)
	}
	name := req.Name
	owner := f.ring.Owner(name)
	var peer PeerReader
	if owner != "" && owner != f.node {
		f.mu.Lock()
		peer = f.peers[owner]
		f.mu.Unlock()
	}

	named := req.Tenant != "" && req.Tenant != tenancy.DefaultTenant
	if owner == "" || owner == f.node || named {
		if !named {
			f.localReads.Inc()
		}
		data, _, err := f.stage.Read(req)
		return data, core.PlanPos{}, err
	}

	ctx := req.Ctx
	if !ctx.Sampled {
		ctx = f.tracer.StartTrace()
	}
	start := f.env.Now()
	if peer != nil {
		data, err := peer.PeerRead(name)
		if err == nil {
			wait := f.env.Now() - start
			f.peerReads.Inc()
			f.waitMu.Lock()
			f.peerWait += wait
			f.waitMu.Unlock()
			if ctx.Sampled {
				f.tracer.Record(obs.Span{
					Trace: ctx.Trace, Stage: obs.StagePeerRead, Name: name,
					At: start, Latency: wait, Size: data.Size,
				})
			}
			return data, core.PlanPos{}, nil
		}
		f.peerErrors.Inc()
	}

	// Peer down (or no transport installed): serve from the shared slow
	// store directly. The local plan never claimed this sample, so no plan
	// state needs unwinding; the orphaned entry in the owner's plan is
	// reaped by epoch-end cancellation.
	resp, err := f.slow.Read(storage.Request{Name: name, Ctx: ctx})
	data := resp.Data
	elapsed := f.env.Now() - start
	if err == nil {
		f.failovers.Inc()
		f.waitMu.Lock()
		if elapsed > f.maxFailoverWait {
			f.maxFailoverWait = elapsed
		}
		f.waitMu.Unlock()
	}
	if ctx.Sampled {
		sp := obs.Span{
			Trace: ctx.Trace, Stage: obs.StagePeerRead, Name: name,
			At: start, Latency: elapsed, Size: data.Size,
			Error: "peer unreachable; slow-store failover",
		}
		if err != nil {
			sp.Error = err.Error()
		}
		f.tracer.Record(sp)
	}
	return data, core.PlanPos{}, err
}

// servePeer handles a forwarded read on the owner side: the sample should
// be warm in (or in flight to) this node's buffer. The span joins the
// requester's trace when the request carries one (the IPC server hands over
// the frame's trace id), so owner-side peer-serve spans land in the same
// trace as the forwarded read.
func (f *Fabric) servePeer(req core.ReadRequest) (storage.Data, core.PlanPos, error) {
	f.peerServes.Inc()
	start := f.env.Now()
	data, _, err := f.stage.Read(req)
	if req.Ctx.Sampled {
		sp := obs.Span{
			Trace: req.Ctx.Trace, Stage: obs.StagePeerServe, Name: req.Name,
			At: start, Latency: f.env.Now() - start, Size: data.Size,
		}
		if err != nil {
			sp.Error = err.Error()
		}
		f.tracer.Record(sp)
	}
	return data, core.PlanPos{}, err
}

// Stats snapshots the fabric's traffic counters.
func (f *Fabric) Stats() ClusterStats {
	nodes := f.ring.Nodes()
	f.waitMu.Lock()
	wait := f.peerWait
	maxFail := f.maxFailoverWait
	f.waitMu.Unlock()
	return ClusterStats{
		Node:               f.node,
		Nodes:              nodes,
		LocalReads:         f.localReads.Value(),
		PeerReads:          f.peerReads.Value(),
		PeerServes:         f.peerServes.Value(),
		PeerErrors:         f.peerErrors.Value(),
		Failovers:          f.failovers.Value(),
		PeerWait:           wait,
		MaxFailoverLatency: maxFail,
	}
}

// localPeer is the in-process peer transport used by the sim cluster
// harness: a forwarded read calls the owner fabric's Read with Peer set.
type localPeer struct{ f *Fabric }

// LocalPeer returns an in-process PeerReader serving from f's buffer.
func LocalPeer(f *Fabric) PeerReader { return localPeer{f: f} }

func (p localPeer) PeerRead(name string) (storage.Data, error) {
	data, _, err := p.f.Read(core.ReadRequest{Name: name, Peer: true})
	return data, err
}
