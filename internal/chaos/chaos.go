// Package chaos is the fault-injection harness for the PRISMA data plane:
// it runs full training epochs in sim mode under a randomized (but seeded,
// hence reproducible) schedule of storage faults — transient read errors,
// multi-read blackouts, injected latency — driven into a FaultyBackend
// beneath a ResilientBackend, and reports delivery accounting, resilience
// telemetry, and per-epoch timings so tests can assert the three chaos
// invariants: the pipeline never wedges, every planned sample is delivered
// exactly once or surfaces its error to the consumer, and throughput
// recovers once the faults heal.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chain"
	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// Config parameterizes one chaos run. Everything is derived from Seed, so
// identical configs reproduce identical virtual-time histories.
type Config struct {
	// Seed drives the dataset shuffle, the fault schedule, and (unless
	// Resilience.JitterSeed is set) the retry jitter.
	Seed int64
	// Files and FileSize define the synthetic dataset.
	Files    int
	FileSize int64
	// Epochs is the total number of training epochs. The first and last
	// run fault-free: epoch 0 calibrates fault-free throughput and sizes
	// the injection window, the final epoch measures recovery.
	Epochs int
	// Producers and BufferCap are the initial t and N.
	Producers int
	BufferCap int
	// AutoTune puts the stage under a controller with the PRISMA
	// autotuner, exercising the degraded-mode back-off path.
	AutoTune bool
	// ControlInterval is the controller tick period when AutoTune is set.
	ControlInterval time.Duration
	// Resilience configures the retrying/breaker wrapper under test.
	Resilience storage.ResilienceConfig
	// Faults is the number of injector actions spread across the faulted
	// middle epochs.
	Faults int
	// MaxBurst bounds the length of one transient failure burst.
	MaxBurst int
	// Latency is the slow-read delay the injector toggles on and off.
	Latency time.Duration
	// UsePool threads a debug-mode buffer pool (leak ledger + poison on
	// release) through the whole stack, so a chaos run doubles as a
	// pooled-buffer leak audit: every retried, abandoned, or errored read
	// path must still return its lease.
	UsePool bool
}

// DefaultConfig returns a schedule that reliably exercises retries,
// blackouts long enough to open the circuit breaker, and injected latency,
// over four epochs of a small synthetic dataset.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Files:           96,
		FileSize:        64_000,
		Epochs:          4,
		Producers:       4,
		BufferCap:       32,
		AutoTune:        false,
		ControlInterval: 2 * time.Millisecond,
		Resilience: storage.ResilienceConfig{
			MaxAttempts:      4,
			BaseBackoff:      200 * time.Microsecond,
			MaxBackoff:       5 * time.Millisecond,
			BackoffFactor:    2,
			JitterSeed:       seed,
			BreakerThreshold: 6,
			BreakerCooldown:  time.Millisecond,
			HalfOpenProbes:   1,
		},
		Faults:   24,
		MaxBurst: 3,
		Latency:  300 * time.Microsecond,
	}
}

// Validate reports whether the config can produce a meaningful run.
func (c Config) Validate() error {
	if c.Files < 1 || c.FileSize < 1 {
		return fmt.Errorf("chaos: need files >= 1 and file size >= 1")
	}
	if c.Epochs < 3 {
		return fmt.Errorf("chaos: need >= 3 epochs (calibration, faults, recovery), got %d", c.Epochs)
	}
	if c.Producers < 1 || c.BufferCap < 1 {
		return fmt.Errorf("chaos: need producers >= 1 and buffer >= 1")
	}
	if c.Faults < 0 || c.MaxBurst < 1 {
		return fmt.Errorf("chaos: need faults >= 0 and burst >= 1")
	}
	return c.Resilience.Validate()
}

// Result is the observable outcome of one chaos run.
type Result struct {
	// Delivered counts planned samples whose bytes reached the consumer;
	// ConsumerErrors counts planned samples whose read surfaced an error.
	// Their sum must equal Files × Epochs (exactly-once-or-error).
	Delivered      int64
	ConsumerErrors int64
	// FinalEpochErrors counts consumer errors in the fault-free final
	// epoch (must be zero: all faults healed).
	FinalEpochErrors int64
	// Injected and Delayed report the fault injector's activity.
	Injected int64
	Delayed  int64
	// Resilience telemetry at end of run.
	Retries      int64
	Exhausted    int64
	BreakerOpens int64
	FastFails    int64
	// DegradedObserved reports whether any mid-run stats snapshot saw the
	// breaker away from closed (the control plane's degraded signal).
	DegradedObserved bool
	// FaultedTicks counts the controller's ticks in the faulted phase, from
	// the first faulted epoch to the heal (AutoTune runs only).
	FaultedTicks int64
	// DecisionDegraded reports whether the controller's decision log, read
	// at the heal, recorded the degraded input at some tick (AutoTune runs
	// only).
	DecisionDegraded bool
	// DegradedBackoff reports that the decision log, read at the heal,
	// holds at least one producer-lowering decision at a tick whose input
	// was degraded — the autotuner visibly backing off while the breaker
	// sheds load, before the recovery wait (AutoTune runs only).
	DegradedBackoff bool
	// EpochTimes holds each epoch's virtual duration; RecoveryRatio is
	// final epoch time over calibration epoch time.
	EpochTimes    []time.Duration
	RecoveryRatio float64
	// Drained reports the queue and buffer were empty at end of run.
	Drained bool
	// Pool audit (UsePool runs only): pool telemetry at end of run, the
	// number of buffer leases never released, and the ledger naming the
	// Get call-sites that leaked them.
	Pool            mempool.Stats
	PoolOutstanding int64
	PoolLeaks       map[string]int
}

// Run executes one seeded chaos schedule in sim mode. The returned error
// is non-nil when the simulation wedges (sim.ErrDeadlock — the harness's
// no-deadlock detector), when the config is invalid, or when the recovery
// wait could not close the breaker after healing.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := sim.New()
	env := conc.NewSimEnv(s)
	var res Result
	var runErr error
	s.Spawn("chaos-driver", func(*sim.Process) {
		res, runErr = drive(env, cfg)
	})
	if err := s.Run(); err != nil {
		return res, fmt.Errorf("chaos: simulation wedged: %w", err)
	}
	return res, runErr
}

// drive is the consumer process: it builds the stack, runs the epochs, and
// owns the injector's stop flag.
func drive(env conc.Env, cfg Config) (Result, error) {
	var res Result

	samples := make([]dataset.Sample, cfg.Files)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("s%05d", i), Size: cfg.FileSize}
	}
	man := dataset.MustNew(samples)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		Name:           "chaos-ssd",
		BaseLatency:    200 * time.Microsecond,
		BytesPerSecond: 1e9,
		Channels:       8,
	})
	if err != nil {
		return res, err
	}
	leaf := storage.NewModeledBackend(man, dev)
	faulty := storage.NewFaultyBackend(env, leaf)
	ch := &chain.Chain{Env: env, Backend: faulty}
	if err := ch.Fold(chain.Config{Resilience: &cfg.Resilience}); err != nil {
		return res, err
	}
	pf, err := core.NewPrefetcher(env, ch.Backend, man, core.PrefetcherConfig{
		InitialProducers:      cfg.Producers,
		MaxProducers:          cfg.Producers * 4,
		InitialBufferCapacity: cfg.BufferCap,
		MaxBufferCapacity:     cfg.BufferCap * 8,
	})
	if err != nil {
		return res, err
	}
	st := core.NewStage(env, ch.Backend, pf)
	st.SetChainStats(ch.Snapshot)
	var pool *mempool.Pool
	if cfg.UsePool {
		// Debug mode: the ledger names any Get call-site whose lease the
		// faulted pipeline fails to release, and released buffers are
		// poisoned so aliasing bugs corrupt visibly.
		pool = mempool.New(mempool.Config{Debug: true})
		leaf.SetBufferPool(pool)
		st.SetBufferPool(pool)
	}
	pf.Start()
	defer st.Close()

	var ctl *control.Controller
	if cfg.AutoTune {
		pol := control.DefaultPolicy()
		pol.MaxProducers = cfg.Producers * 4
		pol.MaxBuffer = cfg.BufferCap * 8
		ctl, err = control.NewController(env, cfg.ControlInterval, st, control.NewAutotuner(), pol,
			control.Tuning{Producers: cfg.Producers, BufferCapacity: cfg.BufferCap})
		if err != nil {
			return res, err
		}
		ctl.Start()
		defer ctl.Stop()
	}

	inj := &injector{env: env, cfg: cfg, faulty: faulty, mu: env.NewMutex()}

	res.EpochTimes = make([]time.Duration, cfg.Epochs)
	var faultedFrom int64 // the controller's ticks when the faulted phase began
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch == 1 {
			// Calibration done: spread the fault schedule across the
			// faulted middle epochs, sized from epoch 0's duration.
			window := res.EpochTimes[0] * time.Duration(cfg.Epochs-2)
			env.Go("chaos-injector", func() { inj.run(window) })
			if ctl != nil {
				faultedFrom = ctl.Ticks()
			}
		}
		if epoch == cfg.Epochs-1 {
			inj.stop()
			if ctl != nil {
				res.FaultedTicks = ctl.Ticks() - faultedFrom
				noteBackoff(&res, ctl.Decisions())
			}
			faulty.Heal()
			if err := awaitRecovery(env, st, ch, cfg, samples[0].Name); err != nil {
				return res, err
			}
		}
		names := man.EpochFileList(cfg.Seed, epoch)
		if err := st.SubmitPlan(names); err != nil {
			return res, err
		}
		start := env.Now()
		for i, n := range names {
			d, _, err := st.Read(core.ReadRequest{Name: n})
			d.Release() // consumer is done with the sample immediately
			if err != nil {
				res.ConsumerErrors++
				if epoch == cfg.Epochs-1 {
					res.FinalEpochErrors++
				}
			} else {
				res.Delivered++
			}
			if i%8 == 0 && st.Stats().Resilience.Degraded {
				res.DegradedObserved = true
			}
		}
		res.EpochTimes[epoch] = env.Now() - start
	}

	stats := st.Stats()
	res.Injected = faulty.Injected()
	res.Delayed = faulty.Delayed()
	res.Retries = stats.Resilience.Retries
	res.Exhausted = stats.Resilience.Exhausted
	res.BreakerOpens = stats.Resilience.BreakerOpens
	res.FastFails = stats.Resilience.FastFails
	res.Drained = stats.QueueLen == 0 && stats.Buffer.Len == 0
	if pool != nil {
		ps := pool.Stats()
		res.Pool = ps
		res.PoolOutstanding = ps.Outstanding
		res.PoolLeaks = pool.Leaks()
	}
	if res.EpochTimes[0] > 0 {
		res.RecoveryRatio = float64(res.EpochTimes[cfg.Epochs-1]) / float64(res.EpochTimes[0])
	}
	return res, nil
}

// noteBackoff reads the decision log. Each tick's record holds the inputs
// the decision saw next to the tuning it left: a degraded input paired with
// a producer-lowering decision is the autotuner's back-off made observable.
func noteBackoff(res *Result, log []control.DecisionRecord) {
	for _, rec := range log {
		if rec.Inputs.Degraded {
			res.DecisionDegraded = true
			if rec.After.Producers < rec.Before.Producers {
				res.DegradedBackoff = true
			}
		}
	}
}

// awaitRecovery drives warm-up reads until the circuit breaker closes
// again after a heal, so the final epoch measures steady-state throughput
// rather than the tail of a cooldown.
func awaitRecovery(env conc.Env, st *core.Stage, ch *chain.Chain, cfg Config, probe string) error {
	cooldown := cfg.Resilience.BreakerCooldown
	if cooldown <= 0 {
		cooldown = time.Millisecond
	}
	for i := 0; i < 100; i++ {
		var s core.StageStats
		if ch.Snapshot(&s); !s.Resilience.Degraded {
			return nil
		}
		env.Sleep(cooldown)
		// An unplanned read bypasses the buffer and lands on the backend:
		// in half-open state it is the probe that closes the breaker.
		d, _, _ := st.Read(core.ReadRequest{Name: probe})
		d.Release()
	}
	return errors.New("chaos: breaker did not close after heal")
}

// injector drives the seeded fault schedule into the FaultyBackend from
// its own sim process.
type injector struct {
	env    conc.Env
	cfg    Config
	faulty *storage.FaultyBackend

	mu      conc.Mutex
	stopped bool
}

func (in *injector) stop() {
	in.mu.Lock()
	in.stopped = true
	in.mu.Unlock()
}

func (in *injector) isStopped() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stopped
}

// run spreads cfg.Faults seeded actions across the injection window. The
// rng stream depends only on cfg.Seed, so the schedule is reproducible.
func (in *injector) run(window time.Duration) {
	if in.cfg.Faults == 0 {
		return
	}
	rng := rand.New(rand.NewSource(in.cfg.Seed ^ 0x5eed))
	gap := window / time.Duration(in.cfg.Faults)
	if gap <= 0 {
		gap = 100 * time.Microsecond
	}
	latencyOn := false
	for i := 0; i < in.cfg.Faults; i++ {
		// Jittered spacing in [0.5, 1.5) of the nominal gap.
		in.env.Sleep(time.Duration(float64(gap) * (0.5 + rng.Float64())))
		if in.isStopped() {
			return
		}
		burst := 1 + rng.Intn(in.cfg.MaxBurst)
		switch rng.Intn(5) {
		case 0, 1:
			// Transient per-file fault: fails the next burst reads of one
			// sample, then heals — the retry path's bread and butter.
			name := fmt.Sprintf("s%05d", rng.Intn(in.cfg.Files))
			in.faulty.FailNTimes(name, burst)
		case 2:
			// Short blackout: a few reads of any name fail.
			in.faulty.FailNext(int64(burst))
		case 3:
			// Long blackout: enough consecutive failures to trip the
			// circuit breaker.
			in.faulty.FailNext(int64(in.cfg.Resilience.BreakerThreshold*2 + burst))
		case 4:
			// Slow reads: toggle injected latency.
			if latencyOn {
				in.faulty.SetLatency(0)
			} else {
				in.faulty.SetLatency(in.cfg.Latency)
			}
			latencyOn = !latencyOn
		}
	}
}
