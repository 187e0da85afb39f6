package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// BlackoutConfig parameterizes one node-blackout chaos run: an N-node
// clairvoyant prefetch fabric whose peer transports are severed and
// restored on a seeded schedule while training epochs run. It models a
// network partition of a serving node: the victim's own training process
// keeps consuming, but peers can no longer reach its buffer and must fail
// over to the shared slow store.
type BlackoutConfig struct {
	// Seed drives the dataset shuffle and the blackout schedule.
	Seed int64
	// Nodes is the fabric size (>= 2: blackouts need a peer to sever).
	Nodes int
	// Files and FileSize define the synthetic dataset.
	Files    int
	FileSize int64
	// Epochs is the total epoch count (>= 3): epoch 0 calibrates fault-free
	// timing and sizes the blackout window, the middle epochs run under
	// blackouts, the final epoch runs fault-free and must be error-free.
	Epochs int
	// Producers and BufferCap are each node's initial t and N.
	Producers int
	BufferCap int
	// TakeDeadline bounds a consumer's wait for a claimed sample — the
	// escape hatch that turns an orphaned wait into an error instead of a
	// wedge. Failover latency is gated against it.
	TakeDeadline time.Duration
	// Blackouts is the number of kill/restore cycles spread across the
	// faulted middle epochs.
	Blackouts int
	// OutageFraction sizes each outage relative to the calibration epoch
	// (0 = default 0.2).
	OutageFraction float64
}

// DefaultBlackoutConfig returns a 3-node schedule whose outages reliably
// intersect cross-node traffic.
func DefaultBlackoutConfig(seed int64) BlackoutConfig {
	return BlackoutConfig{
		Seed:         seed,
		Nodes:        3,
		Files:        180,
		FileSize:     64_000,
		Epochs:       4,
		Producers:    2,
		BufferCap:    32,
		TakeDeadline: 2 * time.Second,
		Blackouts:    6,
	}
}

// Validate reports whether the config can produce a meaningful run.
func (c BlackoutConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("chaos: blackout needs >= 2 nodes, got %d", c.Nodes)
	}
	if c.Files < c.Nodes || c.FileSize < 1 {
		return fmt.Errorf("chaos: need files >= nodes and file size >= 1")
	}
	if c.Epochs < 3 {
		return fmt.Errorf("chaos: need >= 3 epochs (calibration, blackouts, recovery), got %d", c.Epochs)
	}
	if c.Producers < 1 || c.BufferCap < 1 {
		return fmt.Errorf("chaos: need producers >= 1 and buffer >= 1")
	}
	if c.TakeDeadline <= 0 {
		return fmt.Errorf("chaos: blackout runs need a take deadline")
	}
	if c.Blackouts < 1 {
		return fmt.Errorf("chaos: need >= 1 blackout")
	}
	return nil
}

// BlackoutResult is the observable outcome of one blackout run.
type BlackoutResult struct {
	// Delivered + ConsumerErrors must equal Files x Epochs: every sample of
	// every epoch is consumed exactly once cluster-wide, successfully or
	// with a surfaced error (exactly-once-or-error).
	Delivered      int64
	ConsumerErrors int64
	// FinalEpochErrors counts consumer errors in the fault-free final epoch
	// (must be zero: every blackout healed and every orphan was reaped).
	FinalEpochErrors int64
	// Failovers counts reads served from the slow store because the owner
	// was blacked out; PeerErrors counts the failed peer attempts behind
	// them. Both must be > 0 for the schedule to have tested anything.
	Failovers  int64
	PeerErrors int64
	// PeerReads counts successful cross-node buffer reads.
	PeerReads int64
	// MaxFailoverLatency is the worst peer-failure read (peer attempt plus
	// slow-store fallback). A severed transport fails instantly, so the
	// fallback lands well inside the read deadline; the worst case is a
	// reachable peer whose buffer wait exhausted the take deadline before
	// erroring, bounding the total at TakeDeadline plus one slow-store
	// read — the invariant the blackout suite gates.
	MaxFailoverLatency time.Duration
	// OrphansReaped counts plan entries dropped by the epoch-end cancel —
	// placements orphaned by failover reads.
	OrphansReaped int64
	// BlackoutsExecuted reports how many kill/restore cycles ran.
	BlackoutsExecuted int64
	// EpochTimes holds each epoch's virtual duration.
	EpochTimes []time.Duration
}

// severablePeer is a peer transport with a breakable link. All requesters
// share one severablePeer per victim, so a blackout is atomic across the
// cluster.
type severablePeer struct {
	mu    conc.Mutex
	inner distrib.PeerReader
	down  bool
}

var errPeerBlackout = errors.New("chaos: peer blacked out")

func (p *severablePeer) PeerRead(name string) (storage.Data, error) {
	p.mu.Lock()
	down := p.down
	p.mu.Unlock()
	if down {
		return storage.Data{}, errPeerBlackout
	}
	return p.inner.PeerRead(name)
}

func (p *severablePeer) set(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// RunBlackout executes one seeded node-blackout schedule in sim mode. The
// returned error is non-nil when the simulation wedges (the no-deadlock
// detector) or the config is invalid.
func RunBlackout(cfg BlackoutConfig) (BlackoutResult, error) {
	if err := cfg.Validate(); err != nil {
		return BlackoutResult{}, err
	}
	s := sim.New()
	env := conc.NewSimEnv(s)
	var res BlackoutResult
	var runErr error
	s.Spawn("blackout-driver", func(*sim.Process) {
		res, runErr = driveBlackout(env, cfg)
	})
	if err := s.Run(); err != nil {
		return res, fmt.Errorf("chaos: blackout simulation wedged: %w", err)
	}
	return res, runErr
}

// driveBlackout builds the fabric cluster, runs the epochs, and owns the
// blackout injector.
func driveBlackout(env conc.Env, cfg BlackoutConfig) (BlackoutResult, error) {
	var res BlackoutResult

	man, err := dataset.Synthetic("train", cfg.Files, cfg.FileSize, 0.5, cfg.Seed)
	if err != nil {
		return res, err
	}
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		Name:           "blackout-pfs",
		BaseLatency:    200 * time.Microsecond,
		BytesPerSecond: 1e9,
		Channels:       8,
	})
	if err != nil {
		return res, err
	}
	shared := storage.NewModeledBackend(man, dev)

	nodeNames := make([]string, cfg.Nodes)
	for n := range nodeNames {
		nodeNames[n] = fmt.Sprintf("node-%d", n)
	}
	ring, err := distrib.NewRing(nodeNames)
	if err != nil {
		return res, err
	}
	stages := make([]*core.Stage, cfg.Nodes)
	fabrics := make([]*distrib.Fabric, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		stages[n], err = core.NewStage(env, shared, man, core.StageConfig{
			InitialProducers:      cfg.Producers,
			MaxProducers:          cfg.Producers * 4,
			InitialBufferCapacity: cfg.BufferCap,
			MaxBufferCapacity:     cfg.BufferCap * 8,
			TakeDeadline:          cfg.TakeDeadline,
			PlanPartitioner:       ring.Partitioner(nodeNames[n]),
		})
		if err != nil {
			return res, err
		}
		fabrics[n], err = distrib.NewFabric(env, distrib.FabricConfig{
			Node: nodeNames[n], Ring: ring, Stage: stages[n], Slow: shared,
		})
		if err != nil {
			return res, err
		}
		stages[n].Start()
	}
	defer func() {
		for _, st := range stages {
			st.Close()
		}
	}()

	// One severable link per victim, shared by every requester: blackouts
	// are cluster-atomic.
	links := make([]*severablePeer, cfg.Nodes)
	for n := range links {
		links[n] = &severablePeer{mu: env.NewMutex(), inner: distrib.LocalPeer(fabrics[n])}
	}
	for n, f := range fabrics {
		for m := range fabrics {
			if n != m {
				f.SetPeer(nodeNames[m], links[m])
			}
		}
	}

	inj := &blackoutInjector{env: env, cfg: cfg, links: links, mu: env.NewMutex()}

	countsMu := env.NewMutex()
	res.EpochTimes = make([]time.Duration, cfg.Epochs)
	barrier := conc.NewBarrier(env, cfg.Nodes)
	wg := env.NewWaitGroup()
	wg.Add(cfg.Nodes)
	var firstErr error
	for n := 0; n < cfg.Nodes; n++ {
		n := n
		env.Go(nodeNames[n], func() {
			defer wg.Done()
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				if n == 0 {
					if epoch == 1 {
						// Calibration done: spread the blackout schedule
						// across the faulted middle epochs.
						window := res.EpochTimes[0] * time.Duration(cfg.Epochs-2)
						env.Go("blackout-injector", func() { inj.run(window) })
					}
					if epoch == cfg.Epochs-1 {
						// Final epoch is fault-free: stop the injector and
						// restore every severed link.
						inj.stop()
						for _, l := range links {
							l.set(false)
						}
					}
				}
				if !barrier.Await() { // injector state settled
					return
				}
				full := man.EpochFileList(cfg.Seed+11, epoch)
				plan, err := stages[n].SubmitEpoch(full)
				if err != nil {
					countsMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					countsMu.Unlock()
					barrier.Break()
					return
				}
				if !barrier.Await() { // all plans in before any read
					return
				}
				epochStart := env.Now()
				shard := distrib.Shard(full, cfg.Nodes, n)
				maxShard := (len(full) + cfg.Nodes - 1) / cfg.Nodes
				const syncEvery = 8
				windows := (maxShard + syncEvery - 1) / syncEvery
				idx := 0
				for w := 0; w < windows; w++ {
					take := syncEvery
					if rem := len(shard) - idx; rem < take {
						take = rem
					}
					for i := 0; i < take; i++ {
						d, _, err := fabrics[n].Read(core.ReadRequest{Name: shard[idx]})
						d.Release()
						idx++
						countsMu.Lock()
						if err != nil {
							res.ConsumerErrors++
							if epoch == cfg.Epochs-1 {
								res.FinalEpochErrors++
							}
						} else {
							res.Delivered++
						}
						countsMu.Unlock()
					}
					if !barrier.Await() { // pacing
						return
					}
				}
				// Epoch drained: reap orphaned placements — plan entries for
				// samples peers could not fetch during a blackout (their
				// reads failed over to the slow store, so nobody will ever
				// claim them). Cancelling a completed epoch is a no-op.
				if removed, err := stages[n].CancelEpoch(plan.Epoch); err == nil {
					countsMu.Lock()
					res.OrphansReaped += int64(removed)
					countsMu.Unlock()
				}
				if !barrier.Await() { // cleanup done cluster-wide
					return
				}
				if n == 0 {
					res.EpochTimes[epoch] = env.Now() - epochStart
				}
			}
		})
	}
	wg.Wait()
	inj.stop()
	if firstErr != nil {
		return res, firstErr
	}

	for _, f := range fabrics {
		st := f.Stats()
		res.Failovers += st.Failovers
		res.PeerErrors += st.PeerErrors
		res.PeerReads += st.PeerReads
		if st.MaxFailoverLatency > res.MaxFailoverLatency {
			res.MaxFailoverLatency = st.MaxFailoverLatency
		}
	}
	res.BlackoutsExecuted = inj.executed()
	return res, nil
}

// blackoutInjector severs and restores one victim link at a time on a
// seeded schedule, from its own sim process.
type blackoutInjector struct {
	env   conc.Env
	cfg   BlackoutConfig
	links []*severablePeer

	mu      conc.Mutex
	stopped bool
	cycles  int64
}

func (in *blackoutInjector) stop() {
	in.mu.Lock()
	in.stopped = true
	in.mu.Unlock()
}

func (in *blackoutInjector) isStopped() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stopped
}

func (in *blackoutInjector) executed() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cycles
}

// run spreads cfg.Blackouts kill/restore cycles across the injection
// window. The rng stream depends only on cfg.Seed, so the schedule is
// reproducible.
func (in *blackoutInjector) run(window time.Duration) {
	rng := rand.New(rand.NewSource(in.cfg.Seed ^ 0xb1ac))
	frac := in.cfg.OutageFraction
	if frac <= 0 {
		frac = 0.2
	}
	perEpoch := window / time.Duration(max(in.cfg.Epochs-2, 1))
	outage := time.Duration(float64(perEpoch) * frac)
	if outage <= 0 {
		outage = time.Millisecond
	}
	gap := window / time.Duration(in.cfg.Blackouts)
	if gap <= outage {
		gap = outage + time.Millisecond
	}
	for i := 0; i < in.cfg.Blackouts; i++ {
		// Jittered spacing in [0.25, 0.75) of the nominal gap before each
		// kill, so outages drift across epoch phases seed by seed.
		in.env.Sleep(time.Duration(float64(gap-outage) * (0.25 + rng.Float64()/2)))
		if in.isStopped() {
			return
		}
		victim := rng.Intn(len(in.links))
		in.links[victim].set(true)
		in.env.Sleep(outage)
		in.links[victim].set(false)
		in.mu.Lock()
		in.cycles++
		stopped := in.stopped
		in.mu.Unlock()
		if stopped {
			return
		}
	}
}
