// Package distrib explores the paper's §VII "distributed training
// settings" direction: multiple compute nodes, each with its own PRISMA
// data-plane stage, training one model against a shared parallel file
// system. RunCluster is its one simulated-cluster harness; its rows differ
// only as data:
//
//   - the control plane: every node runs its own feedback auto-tuner, blind
//     to the other nodes (the framework-intrinsic situation the paper
//     argues against, lifted one level up), or one logically centralized
//     coordinator with system-wide visibility allocates a global producer
//     budget across the stages — "tight coordination and holistic tuning of
//     data plane stages";
//   - the plan arrangement: every node sweeps the full epoch, reads its
//     round-robin shard (synchronous data parallelism), or prefetches its
//     consistent-hash share and forwards the rest over the peer fabric
//     (clairvoyant placement);
//   - the pacing: samples per all-reduce window, host time and GPU compute
//     per window, and each node's network link to the PFS.
//
// With the shared backend the bottleneck, coordination delivers the same
// training throughput with far fewer total reader threads — the
// cluster-level version of Figure 3's argument — and clairvoyant placement
// reads each sample from the slow store once cluster-wide.
package distrib

import (
	"errors"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// ClusterMode selects the control plane and how the nodes place samples.
type ClusterMode int

const (
	// ClusterIndependent gives each node its own uncoordinated auto-tuner.
	// Without Sharded it is the no-placement baseline: every node sweeps
	// the full shuffled epoch itself (without coordination, no node can
	// know which subset it is responsible for), so the shared slow store
	// serves each sample once per node.
	ClusterIndependent ClusterMode = iota
	// ClusterCoordinated runs the global-budget coordinator over the
	// nodes, bounding the cluster-wide producer count.
	ClusterCoordinated
	// ClusterClairvoyant runs the coordinator and partitions the epoch plan
	// by consistent-hash ownership: each node prefetches exactly the
	// samples it will serve, workers read non-owned samples over the peer
	// fabric, and the slow store serves each sample exactly once
	// cluster-wide.
	ClusterClairvoyant
)

// String implements fmt.Stringer.
func (m ClusterMode) String() string {
	switch m {
	case ClusterCoordinated:
		return "coordinated"
	case ClusterClairvoyant:
		return "clairvoyant"
	default:
		return "independent"
	}
}

// ClusterConfig parameterizes one cluster run.
type ClusterConfig struct {
	Nodes      int
	TrainFiles int
	// FileSize is the mean file size (log-normal, sigma 0.5).
	FileSize int64
	Epochs   int

	// PFS is the shared slow store every node reads.
	PFS storage.DeviceSpec
	// Links is each node's network path to the PFS: none when empty, one
	// spec for every node, or one per node (heterogeneous clusters —
	// coordinated control shifts producers toward the slower paths). A
	// read pays the PFS service and then the link transfer.
	Links []storage.DeviceSpec
	// Stage configures each node's stage.
	Stage core.StageConfig
	// Policy bounds the control plane.
	Policy control.Policy
	// ControlInterval is the tuning period.
	ControlInterval time.Duration
	// ProducerBudget caps the cluster-wide producer count
	// (Coordinated/Clairvoyant).
	ProducerBudget int
	// Replicas selects the control-plane arrangement for the coordinated
	// modes: <=1 runs a single centralized coordinator, >1 a replicated
	// group of them with leader election by lowest live index.
	Replicas int
	// FailLeaderAt, when positive, crashes coordinator replica 0 at that
	// virtual time — the failover exercise for the replicated arrangement
	// (ignored with Replicas <= 1).
	FailLeaderAt time.Duration

	// Sharded makes every node plan and read only its round-robin Shard of
	// the epoch — synchronous data parallelism — instead of the full sweep
	// (not with ClusterClairvoyant, which partitions the plan itself).
	Sharded bool
	// SyncEvery is the per-worker sample count between all-reduce
	// barriers (0 = default 8): the global batch of a training step. The
	// barrier bounds worker position skew, which in turn bounds the
	// clairvoyant reorder window each node's buffer must absorb.
	SyncEvery int
	// PerStepSync is the host-side time each node spends per window before
	// the all-reduce (batch collation, gradient exchange).
	PerStepSync time.Duration
	// StepCompute is the GPU time of one full window's training step,
	// issued after the all-reduce and pipelined one step deep; a short
	// last window pays its share (0 = reads only).
	StepCompute time.Duration

	Mode ClusterMode
	Seed int64
}

// DefaultClusterConfig returns the reference 4-node cluster the harness and
// the prisma-bench cluster target sweep.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:      4,
		TrainFiles: 2000,
		FileSize:   113_000,
		Epochs:     2,
		PFS: storage.DeviceSpec{
			Name: "lustre", BaseLatency: 400 * time.Microsecond, BytesPerSecond: 2e9, Channels: 8,
		},
		Stage: core.StageConfig{
			InitialProducers: 1, MaxProducers: 16,
			InitialBufferCapacity: 32, MaxBufferCapacity: 1024,
			TakeDeadline: 5 * time.Second,
		},
		Policy:          control.DefaultPolicy(),
		ControlInterval: 100 * time.Millisecond,
		ProducerBudget:  16,
		Seed:            1,
	}
}

// DataParallelConfig returns the reference synchronous data-parallel
// cluster of the example and the prisma-bench distrib target: 8 nodes of
// 4 GPUs train LeNet at batch 64 per GPU, each node reading its
// round-robin shard over its own 100 GbE link to the shared 8-channel
// Lustre-like PFS, with a two-producers-per-node coordinated budget.
func DataParallelConfig() ClusterConfig {
	const gpus, batchPerGPU = 4, 64
	cfg := DefaultClusterConfig()
	cfg.Nodes = 8
	cfg.TrainFiles = 16000
	cfg.Links = []storage.DeviceSpec{{
		Name: "100gbe", BaseLatency: 20 * time.Microsecond, BytesPerSecond: 12.5e9, Channels: 8,
	}}
	cfg.Stage.InitialBufferCapacity = 16
	cfg.Stage.TakeDeadline = 0
	cfg.Sharded = true
	cfg.SyncEvery = gpus * batchPerGPU
	cfg.PerStepSync = time.Millisecond
	cfg.StepCompute = train.LeNet().StepTime(batchPerGPU)
	return cfg
}

// Validate reports whether the configuration is usable.
func (c ClusterConfig) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("distrib: cluster nodes %d < 1", c.Nodes)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("distrib: cluster epochs %d < 1", c.Epochs)
	}
	if c.TrainFiles < c.Nodes {
		return fmt.Errorf("distrib: %d files cannot place over %d nodes", c.TrainFiles, c.Nodes)
	}
	if c.Mode != ClusterIndependent && c.ProducerBudget < c.Nodes {
		return fmt.Errorf("distrib: producer budget %d below one per node", c.ProducerBudget)
	}
	if len(c.Links) > 1 && len(c.Links) != c.Nodes {
		return fmt.Errorf("distrib: %d per-node links for %d nodes", len(c.Links), c.Nodes)
	}
	if c.Sharded && c.Mode == ClusterClairvoyant {
		return fmt.Errorf("distrib: clairvoyant placement partitions the plan; it cannot also be sharded")
	}
	if c.SyncEvery < 0 || c.PerStepSync < 0 || c.StepCompute < 0 {
		return fmt.Errorf("distrib: negative pacing (sync every %d, host %v, compute %v)",
			c.SyncEvery, c.PerStepSync, c.StepCompute)
	}
	if err := c.Stage.Validate(); err != nil {
		return err
	}
	return c.Policy.Validate()
}

// ClusterResult is the measured outcome of one cluster run.
type ClusterResult struct {
	Mode     ClusterMode
	Makespan time.Duration

	// UniqueSamples is the per-epoch dataset size.
	UniqueSamples int
	// Delivered counts successful sample reads across all nodes and epochs.
	Delivered int64
	// Errors counts failed sample reads.
	Errors int64

	// PFS reports the shared slow store's activity; EpochBackendReads
	// breaks its read count down per epoch. Clairvoyant and sharded runs
	// read UniqueSamples per epoch; full sweeps Nodes x UniqueSamples.
	PFS               storage.DeviceStats
	EpochBackendReads []int64
	// DuplicateReadFactor is PFS reads / (UniqueSamples x Epochs).
	DuplicateReadFactor float64

	// OverDeliveries / MissedDeliveries count per-epoch samples served more
	// or fewer times than the mode's expectation (once cluster-wide in
	// clairvoyant and sharded runs, once per node otherwise). Both zero on
	// a correct run.
	OverDeliveries   int64
	MissedDeliveries int64

	// PeerReads / PeerServes / Failovers aggregate the fabric's cross-node
	// traffic (clairvoyant mode only).
	PeerReads  int64
	PeerServes int64
	Failovers  int64

	// NodeProducers is each node's producer count at run end, and
	// TotalProducers their cluster-wide sum.
	NodeProducers  []int
	TotalProducers int
	// PeakReaders sums each node's peak concurrent reader count — the
	// cluster-wide thread footprint.
	PeakReaders int
	// ControlFailovers reports coordinator leadership changes (replicated
	// arrangement only).
	ControlFailovers int64

	// NodeStats carries each node's fabric counters (clairvoyant only).
	NodeStats []ClusterStats
}

// Shard returns node `node`'s round-robin share of an epoch file list.
func Shard(names []string, nodes, node int) []string {
	if nodes < 1 || node < 0 || node >= nodes {
		panic(fmt.Sprintf("distrib: bad shard (%d of %d)", node, nodes))
	}
	out := make([]string, 0, len(names)/nodes+1)
	for i := node; i < len(names); i += nodes {
		out = append(out, names[i])
	}
	return out
}

// linkBackend composes a per-node network link in front of the shared
// backend: a read pays the PFS service and then the link transfer.
type linkBackend struct {
	link  *storage.Device
	inner storage.Backend
}

func (l *linkBackend) Read(req storage.Request) (storage.Response, error) {
	resp, err := l.inner.Read(req)
	if err != nil {
		return resp, err
	}
	l.link.Read(resp.Data.Size)
	return resp, nil
}

// takeRetries bounds how often a worker re-claims a sample after a take
// deadline (the deadline returns the plan entry, so a retry is safe).
const takeRetries = 3

// RunCluster executes one cluster run in a fresh simulation. The whole
// fabric — per-node links, placement ring, plan partitioning, peer
// forwarding, independent or coordinated control, GPU-paced all-reduce
// steps — runs in-process over sim time, so runs are deterministic for a
// given config and assertable in CI.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	if err := cfg.Validate(); err != nil {
		return ClusterResult{}, err
	}
	syncEvery := cfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = 8
	}
	clairvoyant := cfg.Mode == ClusterClairvoyant
	// Partitioned runs read each sample on one node per epoch.
	partitioned := clairvoyant || cfg.Sharded
	out := ClusterResult{Mode: cfg.Mode, UniqueSamples: cfg.TrainFiles}
	var runErr error

	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("cluster-driver", func(*sim.Process) {
		man, err := dataset.Synthetic("train", cfg.TrainFiles, cfg.FileSize, 0.5, cfg.Seed)
		if err != nil {
			runErr = err
			return
		}
		pfsDev, err := storage.NewDevice(env, cfg.PFS)
		if err != nil {
			runErr = err
			return
		}
		shared := storage.NewModeledBackend(man, pfsDev)

		nodeNames := make([]string, cfg.Nodes)
		for n := range nodeNames {
			nodeNames[n] = fmt.Sprintf("node-%d", n)
		}

		// One placement ring, immutable, for every node's partitioner and
		// fabric.
		var ring *Ring
		if clairvoyant {
			if ring, err = NewRing(nodeNames); err != nil {
				runErr = err
				return
			}
		}

		// Per-node stages: each prefetches through its reader count and
		// its link; the stage's own reads bypass the count.
		stages := make([]*core.Stage, cfg.Nodes)
		readers := make([]*storage.ReaderCount, cfg.Nodes)
		fabrics := make([]*Fabric, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			var backend storage.Backend = shared
			if len(cfg.Links) > 0 {
				linkDev, err := storage.NewDevice(env, cfg.Links[min(n, len(cfg.Links)-1)])
				if err != nil {
					runErr = err
					return
				}
				backend = &linkBackend{link: linkDev, inner: shared}
			}
			readers[n] = storage.NewReaderCount(env, backend)
			stageCfg := cfg.Stage
			stageCfg.ProducerBackend = readers[n]
			if clairvoyant {
				stageCfg.PlanPartitioner = ring.Partitioner(nodeNames[n])
			}
			stages[n], err = core.NewStage(env, backend, man, stageCfg)
			if err != nil {
				runErr = err
				return
			}
			stages[n].Start()
			if clairvoyant {
				fabrics[n], err = NewFabric(env, FabricConfig{
					Node: nodeNames[n], Ring: ring, Stage: stages[n], Slow: backend,
				})
				if err != nil {
					runErr = err
					return
				}
			}
		}
		if clairvoyant {
			for n, f := range fabrics {
				for m, owner := range fabrics {
					if n != m {
						f.SetPeer(nodeNames[m], LocalPeer(owner))
					}
				}
			}
		}

		// Control plane.
		var controllers []*control.Controller
		var group *control.LeaderGroup[*coordinator]
		if cfg.Mode == ClusterIndependent {
			for _, st := range stages {
				initial := control.Tuning{Producers: cfg.Stage.InitialProducers, BufferCapacity: cfg.Stage.InitialBufferCapacity}
				ctl, err := control.NewController(env, cfg.ControlInterval, st, control.NewAutotuner(), cfg.Policy, initial)
				if err != nil {
					runErr = err
					return
				}
				ctl.Start()
				controllers = append(controllers, ctl)
			}
		} else {
			planes := make([]control.DataPlane, len(stages))
			for i, st := range stages {
				planes[i] = st
			}
			group = newCoordinatorGroup(env, cfg.ControlInterval, planes, cfg.Policy, cfg.ProducerBudget, max(cfg.Replicas, 1))
			group.Start()
			if cfg.Replicas > 1 && cfg.FailLeaderAt > 0 {
				env.Go("leader-killer", func() {
					env.Sleep(cfg.FailLeaderAt)
					group.Fail(0)
				})
			}
		}

		// Per-epoch exactly-once ledger (shared across workers).
		countsMu := env.NewMutex()
		counts := make(map[string]int, cfg.TrainFiles)
		delivered := 0
		errored := 0
		expectPerName := cfg.Nodes
		if partitioned {
			expectPerName = 1
		}
		var lastBackendReads int64

		barrier := conc.NewBarrier(env, cfg.Nodes)
		// await is one barrier round; false means a node left its epoch
		// loop before this round and the run cannot complete.
		var stranded bool
		await := func() bool {
			if barrier.Await() {
				return true
			}
			stranded = true
			return false
		}
		wg := env.NewWaitGroup()
		wg.Add(cfg.Nodes)
		start := env.Now()
		for n := 0; n < cfg.Nodes; n++ {
			n := n
			var reader core.Reader = stages[n]
			if clairvoyant {
				reader = fabrics[n]
			}
			env.Go(nodeNames[n], func() {
				defer wg.Done()
				// Leaving, early or after the last round, releases every
				// node still waiting for this one.
				defer barrier.Break()
				gpus := train.NewGPUCluster(env, 1)
				for epoch := 0; epoch < cfg.Epochs; epoch++ {
					full := man.EpochFileList(cfg.Seed+7, epoch)
					// In clairvoyant mode the full shuffled order is the
					// clairvoyant signal: every node receives it and the
					// installed partitioner narrows the prefetch plan to the
					// node's ring-owned share.
					plan, shard := full, full
					if partitioned {
						shard = Shard(full, cfg.Nodes, n)
					}
					if cfg.Sharded {
						plan = shard
					}
					if err := stages[n].SubmitPlan(plan); err != nil {
						runErr = err
						return
					}
					// No worker reads until every node's plan is in: a
					// forwarded read racing the owner's submission would
					// bypass the plan and duplicate the slow-store read.
					if !await() {
						return
					}

					// Every node runs the same window count; the largest
					// shard (node 0's) defines it, and smaller shards pad
					// with an empty last window (drop_last=False).
					perNode := len(full)
					if partitioned {
						perNode = (len(full) + cfg.Nodes - 1) / cfg.Nodes
					}
					windows := (perNode + syncEvery - 1) / syncEvery
					idx := 0
					for w := 0; w < windows; w++ {
						take := min(syncEvery, len(shard)-idx)
						for i := 0; i < take; i++ {
							name := shard[idx]
							idx++
							var err error
							for attempt := 0; ; attempt++ {
								_, _, err = reader.Read(core.ReadRequest{Name: name})
								if err == nil || attempt >= takeRetries || !errors.Is(err, core.ErrTakeDeadline) {
									break
								}
							}
							countsMu.Lock()
							if err != nil {
								errored++
							} else {
								delivered++
								counts[name]++
							}
							countsMu.Unlock()
						}
						if cfg.PerStepSync > 0 {
							env.Sleep(cfg.PerStepSync)
						}
						if !await() { // all-reduce
							return
						}
						if cfg.StepCompute > 0 && take > 0 {
							gpus.IssueStep(time.Duration(float64(cfg.StepCompute) * float64(take) / float64(syncEvery)))
						}
					}
					gpus.Drain()

					if !await() { // epoch drain
						return
					}
					if n == 0 {
						countsMu.Lock()
						for _, name := range full {
							c := counts[name]
							if c > expectPerName {
								out.OverDeliveries += int64(c - expectPerName)
							} else if c < expectPerName {
								out.MissedDeliveries += int64(expectPerName - c)
							}
							delete(counts, name)
						}
						countsMu.Unlock()
						reads := pfsDev.Stats().Reads
						out.EpochBackendReads = append(out.EpochBackendReads, reads-lastBackendReads)
						lastBackendReads = reads
					}
					if !await() { // ledger reset before next epoch
						return
					}
				}
			})
		}
		wg.Wait()
		out.Makespan = env.Now() - start
		if stranded && runErr == nil {
			runErr = errors.New("distrib: a node left the barrier rounds before the others")
		}

		for _, ctl := range controllers {
			ctl.Stop()
		}
		if group != nil {
			group.Stop()
			out.ControlFailovers = group.Failovers()
		}
		for n, st := range stages {
			var t control.Tuning
			if group != nil {
				t = group.LastLeader().applied(n)
			} else {
				t = controllers[n].Applied()
			}
			out.NodeProducers = append(out.NodeProducers, t.Producers)
			out.TotalProducers += t.Producers
			out.PeakReaders += metrics.MaxValue(readers[n].Distribution())
			if fabrics[n] != nil {
				fs := fabrics[n].Stats()
				out.NodeStats = append(out.NodeStats, fs)
				out.PeerReads += fs.PeerReads
				out.PeerServes += fs.PeerServes
				out.Failovers += fs.Failovers
			}
			st.Close()
		}
		out.Delivered = int64(delivered)
		out.Errors = int64(errored)
		out.PFS = pfsDev.Stats()
		if total := int64(cfg.TrainFiles) * int64(cfg.Epochs); total > 0 {
			out.DuplicateReadFactor = float64(out.PFS.Reads) / float64(total)
		}
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("distrib: cluster simulation: %w", err)
	}
	return out, runErr
}
