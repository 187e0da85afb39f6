// Package distrib explores the paper's §VII "distributed training
// settings" direction: multiple compute nodes, each with its own PRISMA
// data-plane stage, training one model in synchronous data parallelism
// against a shared parallel file system. It contrasts two control-plane
// arrangements:
//
//   - Independent: every node runs its own feedback auto-tuner, blind to
//     the other nodes (the framework-intrinsic situation the paper argues
//     against, lifted one level up).
//   - Coordinated: one logically centralized coordinator with system-wide
//     visibility allocates a global producer budget across the stages,
//     shifting threads from idle stages to starved ones — "tight
//     coordination and holistic tuning of data plane stages".
//
// Both deliver the same training throughput when the shared backend is the
// bottleneck, but coordination reaches it with far fewer total reader
// threads — the cluster-level version of Figure 3's argument.
package distrib

import (
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

// Mode selects the control-plane arrangement.
type Mode int

const (
	// Independent gives each node its own uncoordinated auto-tuner.
	Independent Mode = iota
	// Coordinated runs the global-budget coordinator.
	Coordinated
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Coordinated {
		return "coordinated"
	}
	return "independent"
}

// Config parameterizes one distributed run.
type Config struct {
	Nodes       int
	GPUsPerNode int
	Model       train.Model
	BatchPerGPU int
	Epochs      int
	PerStepSync time.Duration

	// TrainFiles is the dataset size (files are sharded across nodes
	// every epoch).
	TrainFiles int
	// FileSize is the mean file size (log-normal, sigma 0.5).
	FileSize int64

	// PFS is the shared parallel-file-system device.
	PFS storage.DeviceSpec
	// Link is each node's network path to the PFS (per-node device).
	Link storage.DeviceSpec
	// Links optionally overrides Link per node (heterogeneous clusters:
	// len must equal Nodes). Coordinated control shifts producers toward
	// the nodes with slower paths.
	Links []storage.DeviceSpec

	// Stage configures each node's PRISMA prefetcher.
	Stage core.PrefetcherConfig
	// Policy bounds the tuners.
	Policy control.Policy
	// ControlInterval is the tuning period for both modes.
	ControlInterval time.Duration
	// ProducerBudget caps the cluster-wide producer count in Coordinated
	// mode (a sensible value is the PFS channel count plus slack).
	ProducerBudget int

	Mode Mode
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("distrib: nodes %d < 1", c.Nodes)
	}
	if c.GPUsPerNode < 1 || c.BatchPerGPU < 1 || c.Epochs < 1 {
		return fmt.Errorf("distrib: bad GPU/batch/epoch config")
	}
	if c.TrainFiles < c.Nodes {
		return fmt.Errorf("distrib: %d files cannot shard over %d nodes", c.TrainFiles, c.Nodes)
	}
	if c.Mode == Coordinated && c.ProducerBudget < c.Nodes {
		return fmt.Errorf("distrib: producer budget %d below one per node", c.ProducerBudget)
	}
	if c.Links != nil && len(c.Links) != c.Nodes {
		return fmt.Errorf("distrib: %d per-node links for %d nodes", len(c.Links), c.Nodes)
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Stage.Validate(); err != nil {
		return err
	}
	return c.Policy.Validate()
}

// NodeResult is one node's measurements.
type NodeResult struct {
	Elapsed     time.Duration
	Samples     int64
	FinalTuning control.Tuning
	MaxReaders  int
}

// Result is the cluster-level outcome.
type Result struct {
	Makespan time.Duration
	Nodes    []NodeResult
	// TotalMaxReaders sums each node's peak concurrent reader count —
	// the cluster-wide thread footprint.
	TotalMaxReaders int
	// PFS reports shared-device activity.
	PFS storage.DeviceStats
}

// DefaultConfig returns the reference 8-node cluster used by the example
// and the prisma-bench distrib target: LeNet against a shared 8-channel
// Lustre-like PFS over 100 GbE links, with a two-producers-per-node
// coordinated budget.
func DefaultConfig() Config {
	return Config{
		Nodes:       8,
		GPUsPerNode: 4,
		Model:       train.LeNet(),
		BatchPerGPU: 64,
		Epochs:      2,
		PerStepSync: time.Millisecond,
		TrainFiles:  16000,
		FileSize:    113_000,
		PFS: storage.DeviceSpec{
			Name: "lustre", BaseLatency: 400 * time.Microsecond, BytesPerSecond: 2e9, Channels: 8,
		},
		Link: storage.DeviceSpec{
			Name: "100gbe", BaseLatency: 20 * time.Microsecond, BytesPerSecond: 12.5e9, Channels: 8,
		},
		Stage: core.PrefetcherConfig{
			InitialProducers: 1, MaxProducers: 16,
			InitialBufferCapacity: 16, MaxBufferCapacity: 1024,
		},
		Policy:          control.DefaultPolicy(),
		ControlInterval: 100 * time.Millisecond,
		ProducerBudget:  16,
		Seed:            1,
	}
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
	l.link.Read(resp.PayloadSize(req))
	return resp, nil
}

func (l *linkBackend) Size(name string) (int64, error) { return l.inner.Size(name) }

// Run executes one distributed training run in a fresh simulation.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var out Result
	var runErr error

	s := sim.New()
	env := conc.NewSimEnv(s)
	s.Spawn("distrib-driver", func(*sim.Process) {
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

		// Per-node stages.
		stages := make([]*core.Stage, cfg.Nodes)
		readers := make([]*storage.ReaderCount, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			linkSpec := cfg.Link
			if cfg.Links != nil {
				linkSpec = cfg.Links[n]
			}
			linkDev, err := storage.NewDevice(env, linkSpec)
			if err != nil {
				runErr = err
				return
			}
			backend := &linkBackend{link: linkDev, inner: shared}
			readers[n] = storage.NewReaderCount(env, backend)
			pf, err := core.NewPrefetcher(env, readers[n], cfg.Stage)
			if err != nil {
				runErr = err
				return
			}
			stages[n] = core.NewStage(env, backend, pf)
			pf.Start()
		}

		// Control plane.
		var controllers []*control.Controller
		var coord *control.LeaderGroup[*coordinator]
		switch cfg.Mode {
		case Independent:
			for n, st := range stages {
				ctl := control.NewController(env, cfg.ControlInterval)
				initial := control.Tuning{Producers: cfg.Stage.InitialProducers, BufferCapacity: cfg.Stage.InitialBufferCapacity}
				if err := ctl.Attach(fmt.Sprintf("node-%d", n), st, control.NewAutotuner(), cfg.Policy, initial); err != nil {
					runErr = err
					return
				}
				ctl.Start()
				controllers = append(controllers, ctl)
			}
		case Coordinated:
			planes := make([]control.DataPlane, len(stages))
			for i, st := range stages {
				planes[i] = st
			}
			coord = newCoordinatorGroup(env, cfg.ControlInterval, planes, cfg.Policy, cfg.ProducerBudget, 1)
			coord.Start()
		}

		// Training: one thread per node, synchronized per step by the
		// all-reduce barrier.
		globalBatch := cfg.BatchPerGPU * cfg.GPUsPerNode
		barrier := conc.NewBarrier(env, cfg.Nodes)
		results := make([]NodeResult, cfg.Nodes)
		wg := env.NewWaitGroup()
		wg.Add(cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			n := n
			env.Go(fmt.Sprintf("node-%d", n), func() {
				defer wg.Done()
				gpus := train.NewGPUCluster(env, cfg.GPUsPerNode)
				start := env.Now()
				for epoch := 0; epoch < cfg.Epochs; epoch++ {
					full := man.EpochFileList(cfg.Seed+7, epoch)
					shard := Shard(full, cfg.Nodes, n)
					if err := stages[n].SubmitPlan(shard); err != nil {
						runErr = err
						barrier.Break()
						return
					}
					// All nodes execute the same step count; the largest
					// shard defines it (smaller shards pad with empty
					// steps, PyTorch's drop_last=False behaviour).
					maxShard := len(full)/cfg.Nodes + 1
					steps := (maxShard + globalBatch - 1) / globalBatch
					idx := 0
					for step := 0; step < steps; step++ {
						take := globalBatch
						if rem := len(shard) - idx; rem < take {
							take = rem
						}
						for i := 0; i < take; i++ {
							if _, _, err := stages[n].Read(core.ReadRequest{Name: shard[idx]}); err != nil {
								runErr = err
								barrier.Break()
								return
							}
							idx++
						}
						if cfg.PerStepSync > 0 {
							env.Sleep(cfg.PerStepSync)
						}
						if !barrier.Await() { // all-reduce
							return
						}
						if take > 0 {
							d := cfg.Model.StepTime(cfg.BatchPerGPU)
							if take < globalBatch {
								d = time.Duration(float64(d) * float64(take) / float64(globalBatch))
							}
							gpus.IssueStep(d)
						}
						results[n].Samples += int64(take)
					}
					gpus.Drain()
				}
				results[n].Elapsed = env.Now() - start
				results[n].MaxReaders = metrics.MaxValue(readers[n].Distribution())
			})
		}
		wg.Wait()

		for _, ctl := range controllers {
			ctl.Stop()
		}
		if coord != nil {
			coord.Stop()
		}
		for n, st := range stages {
			switch cfg.Mode {
			case Independent:
				results[n].FinalTuning, _ = controllers[n].Applied(fmt.Sprintf("node-%d", n))
			case Coordinated:
				results[n].FinalTuning = coord.LastLeader().applied(n)
			}
			st.Close()
		}
		out.Nodes = results
		for _, r := range results {
			if r.Elapsed > out.Makespan {
				out.Makespan = r.Elapsed
			}
			out.TotalMaxReaders += r.MaxReaders
		}
		out.PFS = pfsDev.Stats()
	})
	if err := s.Run(); err != nil {
		return out, fmt.Errorf("distrib: simulation: %w", err)
	}
	return out, runErr
}
