package distrib

import (
	"errors"
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// ClusterMode selects how the multi-node fabric places and fetches samples.
type ClusterMode int

const (
	// ClusterIndependent is the no-placement baseline: every node sweeps
	// the full shuffled epoch itself (without coordination, no node can
	// know which subset it is responsible for), so the shared slow store
	// serves each sample once per node.
	ClusterIndependent ClusterMode = iota
	// ClusterCoordinated keeps independent full sweeps but runs the
	// global-budget coordinator over the nodes, bounding the cluster-wide
	// producer count.
	ClusterCoordinated
	// ClusterClairvoyant partitions the epoch plan by consistent-hash
	// ownership: each node prefetches exactly the samples it will serve,
	// workers read non-owned samples over the peer fabric, and the slow
	// store serves each sample exactly once cluster-wide.
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

// ClusterConfig parameterizes one cluster-fabric run.
type ClusterConfig struct {
	Nodes      int
	TrainFiles int
	FileSize   int64
	Epochs     int

	// PFS is the shared slow store every node reads.
	PFS storage.DeviceSpec
	// Stage configures each node's prefetcher.
	Stage core.PrefetcherConfig
	// Policy bounds the control plane.
	Policy control.Policy
	// ControlInterval is the tuning period (Coordinated/Clairvoyant).
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
	// VirtualNodes is the placement ring's vnode count (0 = default).
	VirtualNodes int
	// SyncEvery is the per-worker sample count between all-reduce
	// barriers (0 = default 8). The barrier bounds worker position skew,
	// which in turn bounds the clairvoyant reorder window each node's
	// buffer must absorb.
	SyncEvery int

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
		Stage: core.PrefetcherConfig{
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

	// BackendReads is the shared slow store's total served read count;
	// EpochBackendReads breaks it down per epoch. In clairvoyant mode each
	// epoch's count equals UniqueSamples; independent sweeps show
	// Nodes x UniqueSamples.
	BackendReads      int64
	EpochBackendReads []int64
	// DuplicateReadFactor is BackendReads / (UniqueSamples x Epochs).
	DuplicateReadFactor float64

	// OverDeliveries / MissedDeliveries count per-epoch samples served more
	// or fewer times than the mode's expectation (once cluster-wide in
	// clairvoyant, once per node otherwise). Both zero on a correct run.
	OverDeliveries   int64
	MissedDeliveries int64

	// PeerReads / PeerServes / Failovers aggregate the fabric's cross-node
	// traffic (clairvoyant mode only).
	PeerReads  int64
	PeerServes int64
	Failovers  int64

	// TotalProducers is the cluster-wide producer count at run end.
	TotalProducers int
	// ControlFailovers reports coordinator leadership changes (replicated
	// arrangement only).
	ControlFailovers int64

	// NodeStats carries each node's fabric counters (clairvoyant only).
	NodeStats []ClusterStats
}

// takeRetries bounds how often a worker re-claims a sample after a take
// deadline (the deadline returns the plan entry, so a retry is safe).
const takeRetries = 3

// RunCluster executes one cluster-fabric run in a fresh simulation. The
// whole fabric — placement ring, plan partitioning, peer forwarding,
// coordinated control — runs in-process over sim time, so runs are
// deterministic for a given config and assertable in CI.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	if err := cfg.Validate(); err != nil {
		return ClusterResult{}, err
	}
	syncEvery := cfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = 8
	}
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

		stages := make([]*core.Stage, cfg.Nodes)
		fabrics := make([]*Fabric, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			pf, err := core.NewPrefetcher(env, shared, cfg.Stage)
			if err != nil {
				runErr = err
				return
			}
			stages[n] = core.NewStage(env, shared, pf)
			pf.Start()
		}
		if cfg.Mode == ClusterClairvoyant {
			for n := 0; n < cfg.Nodes; n++ {
				ring, err := NewRing(nodeNames, cfg.VirtualNodes)
				if err != nil {
					runErr = err
					return
				}
				fabrics[n], err = NewFabric(env, FabricConfig{
					Node: nodeNames[n], Ring: ring, Stage: stages[n],
					Slow: shared, InstallPartitioner: true,
				})
				if err != nil {
					runErr = err
					return
				}
			}
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
			for n, st := range stages {
				ctl := control.NewController(env, cfg.ControlInterval)
				initial := control.Tuning{Producers: cfg.Stage.InitialProducers, BufferCapacity: cfg.Stage.InitialBufferCapacity}
				if err := ctl.Attach(nodeNames[n], st, control.NewAutotuner(), cfg.Policy, initial); err != nil {
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
		expectPerName := 1
		if cfg.Mode != ClusterClairvoyant {
			expectPerName = cfg.Nodes
		}
		var lastBackendReads int64

		barrier := conc.NewBarrier(env, cfg.Nodes)
		wg := env.NewWaitGroup()
		wg.Add(cfg.Nodes)
		start := env.Now()
		for n := 0; n < cfg.Nodes; n++ {
			n := n
			var reader core.Reader = stages[n]
			if cfg.Mode == ClusterClairvoyant {
				reader = fabrics[n]
			}
			env.Go(nodeNames[n], func() {
				defer wg.Done()
				for epoch := 0; epoch < cfg.Epochs; epoch++ {
					full := man.EpochFileList(cfg.Seed+7, epoch)
					// In clairvoyant mode the full shuffled order is the
					// clairvoyant signal: every node receives it and the
					// installed partitioner narrows the prefetch plan to the
					// node's ring-owned share.
					if err := stages[n].SubmitPlan(full); err != nil {
						runErr = err
						barrier.Break()
						return
					}
					// No worker reads until every node's plan is in: a
					// forwarded read racing the owner's submission would
					// bypass the plan and duplicate the slow-store read.
					if !barrier.Await() {
						return
					}

					shard := full
					if cfg.Mode == ClusterClairvoyant {
						shard = Shard(full, cfg.Nodes, n)
					}
					maxShard := len(full)
					if cfg.Mode == ClusterClairvoyant {
						maxShard = (len(full) + cfg.Nodes - 1) / cfg.Nodes
					}
					windows := (maxShard + syncEvery - 1) / syncEvery
					idx := 0
					for w := 0; w < windows; w++ {
						take := syncEvery
						if rem := len(shard) - idx; rem < take {
							take = rem
						}
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
						if !barrier.Await() { // all-reduce pacing
							return
						}
					}

					if !barrier.Await() { // epoch drain
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
					if !barrier.Await() { // ledger reset before next epoch
						return
					}
				}
			})
		}
		wg.Wait()
		out.Makespan = env.Now() - start

		for _, ctl := range controllers {
			ctl.Stop()
		}
		if group != nil {
			group.Stop()
			out.TotalProducers = group.LastLeader().totalProducers()
			out.ControlFailovers = group.Failovers()
		}
		for n, ctl := range controllers {
			t, _ := ctl.Applied(nodeNames[n])
			out.TotalProducers += t.Producers
		}
		for n, st := range stages {
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
		out.BackendReads = pfsDev.Stats().Reads
		if total := int64(cfg.TrainFiles) * int64(cfg.Epochs); total > 0 {
			out.DuplicateReadFactor = float64(out.BackendReads) / float64(total)
		}
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("distrib: cluster simulation: %w", err)
	}
	return out, runErr
}
