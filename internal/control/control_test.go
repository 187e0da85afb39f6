package control

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/sim"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{MinProducers: 0, MaxProducers: 4, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: .5},
		{MinProducers: 4, MaxProducers: 1, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: .5},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 0, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: .5},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 4, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: .5},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: 0, StarvationLow: 0, ProducerIdleHigh: .5},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .2, ProducerIdleHigh: .5},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: 0},
		{MinProducers: 1, MaxProducers: 4, MinBuffer: 1, MaxBuffer: 2, StarvationHigh: .1, StarvationLow: .01, ProducerIdleHigh: 1.5},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestPolicyClamp(t *testing.T) {
	p := Policy{MinProducers: 2, MaxProducers: 8, MinBuffer: 4, MaxBuffer: 64}
	got := p.Clamp(Tuning{Producers: 100, BufferCapacity: 1})
	if got != (Tuning{Producers: 8, BufferCapacity: 4}) {
		t.Fatalf("Clamp = %+v", got)
	}
	got = p.Clamp(Tuning{Producers: 0, BufferCapacity: 1000})
	if got != (Tuning{Producers: 2, BufferCapacity: 64}) {
		t.Fatalf("Clamp = %+v", got)
	}
}

func TestStaticAlgorithm(t *testing.T) {
	alg := StaticAlgorithm{Fixed: Tuning{Producers: 100, BufferCapacity: 5}}
	pol := DefaultPolicy()
	got := alg.Decide(core.StageStats{}, core.StageStats{}, Tuning{Producers: 1, BufferCapacity: 1}, pol)
	if got.Producers != pol.MaxProducers || got.BufferCapacity != 5 {
		t.Fatalf("Decide = %+v", got)
	}
}

// statsAt builds a StageStats snapshot for autotuner unit tests.
func statsAt(now time.Duration, consumerWait, producerWait time.Duration, queueLen int, takes int64) core.StageStats {
	return core.StageStats{
		Now:      now,
		QueueLen: queueLen,
		Buffer: core.BufferStats{
			ConsumerWait: consumerWait,
			ProducerWait: producerWait,
			Takes:        takes,
		},
	}
}

func TestAutotunerRaisesProducersOnStarvation(t *testing.T) {
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 200*time.Millisecond, 0, 100, 50) // 20% starvation
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 2, BufferCapacity: 16}, pol)
	if got.Producers != 3 {
		t.Fatalf("Producers = %d, want 3", got.Producers)
	}
	if got.BufferCapacity != 16 {
		t.Fatalf("BufferCapacity changed to %d, want 16", got.BufferCapacity)
	}
}

func TestAutotunerDoublesBufferAtProducerCeiling(t *testing.T) {
	pol := DefaultPolicy()
	pol.MaxProducers = 4
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 300*time.Millisecond, 0, 100, 50)
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 4 || got.BufferCapacity != 32 {
		t.Fatalf("Decide = %+v, want producers 4, buffer 32", got)
	}
}

func TestAutotunerNoBufferGrowthWhenDisabled(t *testing.T) {
	pol := DefaultPolicy()
	pol.MaxProducers = 4
	pol.GrowBufferOnStarvation = false
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 300*time.Millisecond, 0, 100, 50)
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.BufferCapacity != 16 {
		t.Fatalf("BufferCapacity = %d, want 16", got.BufferCapacity)
	}
}

func TestAutotunerLowersIdleProducers(t *testing.T) {
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 100, 0)
	// No starvation; 4 producers blocked 80% of the interval; queue non-empty.
	cur := statsAt(time.Second, 0, 3200*time.Millisecond, 100, 50)
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 3 {
		t.Fatalf("Producers = %d, want 3", got.Producers)
	}
}

func TestAutotunerIgnoresIdlenessWithEmptyQueue(t *testing.T) {
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 0, 0)
	cur := statsAt(time.Second, 0, 3200*time.Millisecond, 0, 50) // epoch boundary
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 4 {
		t.Fatalf("Producers = %d, want unchanged 4", got.Producers)
	}
}

func TestAutotunerHoldsInsideHysteresisBand(t *testing.T) {
	pol := DefaultPolicy()
	prev := statsAt(0, 0, 0, 100, 0)
	// Starvation 3% (between Low=1% and High=5%), some idleness.
	cur := statsAt(time.Second, 30*time.Millisecond, 600*time.Millisecond, 100, 50)
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 4, BufferCapacity: 16}, pol)
	if got.Producers != 4 || got.BufferCapacity != 16 {
		t.Fatalf("Decide = %+v, want hold", got)
	}
}

func TestAutotunerZeroIntervalHolds(t *testing.T) {
	pol := DefaultPolicy()
	s := statsAt(time.Second, time.Second, 0, 10, 1)
	got := NewAutotuner().Decide(s, s, Tuning{Producers: 2, BufferCapacity: 8}, pol)
	if got != (Tuning{Producers: 2, BufferCapacity: 8}) {
		t.Fatalf("Decide = %+v, want hold on zero interval", got)
	}
}

func TestAutotunerRespectsPolicyFloor(t *testing.T) {
	pol := DefaultPolicy()
	pol.MinProducers = 2
	prev := statsAt(0, 0, 0, 100, 0)
	cur := statsAt(time.Second, 0, 1800*time.Millisecond, 100, 10)
	got := NewAutotuner().Decide(prev, cur, Tuning{Producers: 2, BufferCapacity: 8}, pol)
	if got.Producers != 2 {
		t.Fatalf("Producers = %d, want floor 2", got.Producers)
	}
}

func TestAutotunerPlateauStopsFutileRaises(t *testing.T) {
	// Raising t beyond the device's parallelism yields no throughput gain;
	// the tuner must step back and stop chasing starvation it cannot fix —
	// the behaviour behind PRISMA's ≤4 threads in Fig. 3.
	pol := DefaultPolicy()
	a := NewAutotuner()
	tun := Tuning{Producers: 4, BufferCapacity: 64}
	// Interval 1: starving at rate 1000/s → raise to 5.
	s0 := statsAt(0, 0, 0, 100, 0)
	s1 := statsAt(time.Second, 200*time.Millisecond, 0, 100, 1000)
	tun = a.Decide(s0, s1, tun, pol)
	if tun.Producers != 5 {
		t.Fatalf("after raise: %d, want 5", tun.Producers)
	}
	// Interval 2: still starving, rate unchanged (device-capped) → undo.
	s2 := statsAt(2*time.Second, 400*time.Millisecond, 0, 100, 2000)
	tun = a.Decide(s1, s2, tun, pol)
	if tun.Producers != 4 {
		t.Fatalf("after plateau detection: %d, want back to 4", tun.Producers)
	}
	// Interval 3: starvation persists but t holds at the plateau; the
	// buffer grows instead.
	s3 := statsAt(3*time.Second, 600*time.Millisecond, 0, 100, 3000)
	tun = a.Decide(s2, s3, tun, pol)
	if tun.Producers != 4 {
		t.Fatalf("plateau not honored: %d, want 4", tun.Producers)
	}
	if tun.BufferCapacity != 128 {
		t.Fatalf("buffer = %d, want doubled 128", tun.BufferCapacity)
	}
}

func TestAutotunerPlateauClearsOnEase(t *testing.T) {
	pol := DefaultPolicy()
	a := NewAutotuner()
	a.plateauAt = 4
	tun := Tuning{Producers: 4, BufferCapacity: 64}
	// Calm interval with heavy producer idleness: down-tune and clear the
	// plateau so future exploration is allowed.
	s0 := statsAt(0, 0, 0, 100, 0)
	s1 := statsAt(time.Second, 0, 3500*time.Millisecond, 100, 500)
	tun = a.Decide(s0, s1, tun, pol)
	if tun.Producers != 3 {
		t.Fatalf("producers = %d, want 3", tun.Producers)
	}
	if a.plateauAt != 0 {
		t.Fatalf("plateau not cleared")
	}
}

func TestGrowthAlgorithmPinsMaxAndDoubles(t *testing.T) {
	pol := DefaultPolicy()
	pol.MaxProducers = 30
	prev := statsAt(0, 0, 0, 10, 0)
	cur := statsAt(time.Second, time.Millisecond, 0, 10, 5)
	got := GrowthAlgorithm{}.Decide(prev, cur, Tuning{Producers: 1, BufferCapacity: 8}, pol)
	if got.Producers != 30 {
		t.Fatalf("Producers = %d, want pinned 30", got.Producers)
	}
	if got.BufferCapacity != 16 {
		t.Fatalf("BufferCapacity = %d, want doubled 16", got.BufferCapacity)
	}
	// No starvation increase: buffer holds.
	got = GrowthAlgorithm{}.Decide(cur, cur, got, pol)
	if got.BufferCapacity != 16 {
		t.Fatalf("BufferCapacity = %d, want hold 16", got.BufferCapacity)
	}
}

// fakeDP is a scriptable DataPlane for controller unit tests.
type fakeDP struct {
	stats     core.StageStats
	producers []int
	buffers   []int
}

func (f *fakeDP) Stats() core.StageStats  { return f.stats }
func (f *fakeDP) SetProducers(n int)      { f.producers = append(f.producers, n) }
func (f *fakeDP) SetBufferCapacity(n int) { f.buffers = append(f.buffers, n) }

func TestControllerAttachAppliesInitialTuning(t *testing.T) {
	env := conc.NewReal()
	c := NewController(env, time.Second)
	dp := &fakeDP{}
	if err := c.Attach("s1", dp, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 3, BufferCapacity: 10}); err != nil {
		t.Fatal(err)
	}
	if len(dp.producers) != 1 || dp.producers[0] != 3 {
		t.Fatalf("SetProducers calls = %v, want [3]", dp.producers)
	}
	if len(dp.buffers) != 1 || dp.buffers[0] != 10 {
		t.Fatalf("SetBufferCapacity calls = %v, want [10]", dp.buffers)
	}
	if err := c.Attach("s1", dp, NewAutotuner(), DefaultPolicy(), Tuning{}); err == nil {
		t.Fatal("duplicate Attach accepted")
	}
	if got := c.Stages(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("Stages = %v", got)
	}
}

func TestControllerAttachRejectsBadPolicy(t *testing.T) {
	c := NewController(conc.NewReal(), time.Second)
	if err := c.Attach("s", &fakeDP{}, NewAutotuner(), Policy{}, Tuning{}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestControllerTickAppliesDecision(t *testing.T) {
	env := conc.NewReal()
	c := NewController(env, time.Second)
	dp := &fakeDP{}
	pol := DefaultPolicy()
	_ = c.Attach("s1", dp, NewAutotuner(), pol, Tuning{Producers: 1, BufferCapacity: 8})
	// Starving snapshot: controller must raise producers on tick.
	dp.stats = statsAt(time.Second, 500*time.Millisecond, 0, 50, 10)
	c.Tick()
	tun, ok := c.Applied("s1")
	if !ok || tun.Producers != 2 {
		t.Fatalf("Applied = %+v, %v, want producers 2", tun, ok)
	}
	hist := c.History("s1")
	if len(hist) != 1 || hist[0].Before.Producers != 1 || hist[0].After.Producers != 2 {
		t.Fatalf("History = %+v", hist)
	}
	if c.Ticks() != 1 {
		t.Fatalf("Ticks = %d, want 1", c.Ticks())
	}
}

func TestControllerDetach(t *testing.T) {
	c := NewController(conc.NewReal(), time.Second)
	dp := &fakeDP{}
	_ = c.Attach("s1", dp, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 8})
	c.Detach("s1")
	if len(c.Stages()) != 0 {
		t.Fatal("stage not detached")
	}
	if _, ok := c.Applied("s1"); ok {
		t.Fatal("Applied found detached stage")
	}
	c.Detach("s1") // idempotent
}

func TestControllerAutonomousLoopInSim(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var ticks int64
	s.Spawn("driver", func(p *sim.Process) {
		c := NewController(env, 100*time.Millisecond)
		dp := &fakeDP{}
		_ = c.Attach("s1", dp, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 8})
		c.Start()
		env.Sleep(time.Second)
		c.Stop()
		ticks = c.Ticks()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 1s / 100ms = 10 sleeps; the stop flag is seen after the wake at 1.0s,
	// so 9 full ticks complete before it.
	if ticks < 8 || ticks > 10 {
		t.Fatalf("ticks = %d, want ≈9", ticks)
	}
}

// buildStage wires a prefetch stage over a modeled device for end-to-end
// control tests.
func buildStage(env conc.Env, nFiles int, deviceLat time.Duration, channels int) (*core.Stage, []string) {
	samples := make([]dataset.Sample, nFiles)
	names := make([]string, nFiles)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%05d", i), Size: 100_000}
		names[i] = samples[i].Name
	}
	m := dataset.MustNew(samples)
	dev, err := storage.NewDevice(env, storage.DeviceSpec{
		BaseLatency:    deviceLat,
		BytesPerSecond: 1e15,
		Channels:       channels,
	})
	if err != nil {
		panic(err)
	}
	backend := storage.NewModeledBackend(m, dev, nil)
	pf, err := core.NewPrefetcher(env, backend, core.PrefetcherConfig{
		InitialProducers:      1,
		MaxProducers:          32,
		InitialBufferCapacity: 16,
		MaxBufferCapacity:     1024,
	})
	if err != nil {
		panic(err)
	}
	st := core.NewStage(env, backend, pf)
	pf.Start()
	return st, names
}

func TestAutotunerConvergesUpward(t *testing.T) {
	// Consumer demands 4000 samples/s; one producer delivers 1000/s
	// (1 ms device). The tuner must settle near t=4 — far below the
	// 32-producer ceiling (the Fig. 3 claim).
	s := sim.New()
	env := conc.NewSimEnv(s)
	var applied Tuning
	s.Spawn("driver", func(p *sim.Process) {
		st, names := buildStage(env, 4000, time.Millisecond, 8)
		ctl := NewController(env, 50*time.Millisecond)
		_ = ctl.Attach("stage", st, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(250 * time.Microsecond) // consumer compute: 4000/s
		}
		applied, _ = ctl.Applied("stage")
		ctl.Stop()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if applied.Producers < 3 || applied.Producers > 7 {
		t.Fatalf("converged producers = %d, want ≈4 (3..7)", applied.Producers)
	}
}

func TestAutotunerConvergesDownward(t *testing.T) {
	// Start overprovisioned at t=8 with a slow consumer (500/s): the tuner
	// must shed producers.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var applied Tuning
	s.Spawn("driver", func(p *sim.Process) {
		st, names := buildStage(env, 1500, time.Millisecond, 8)
		ctl := NewController(env, 50*time.Millisecond)
		_ = ctl.Attach("stage", st, NewAutotuner(), DefaultPolicy(), Tuning{Producers: 8, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(2 * time.Millisecond) // 500/s
		}
		applied, _ = ctl.Applied("stage")
		ctl.Stop()
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if applied.Producers > 3 {
		t.Fatalf("converged producers = %d, want <= 3 after down-tuning from 8", applied.Producers)
	}
}

func TestReplicaGroupLeaderAndFailover(t *testing.T) {
	env := conc.NewReal()
	g := NewReplicaGroup(env, time.Second, 3)
	dp := &fakeDP{}
	if err := g.Attach("s1", dp, func() Algorithm { return NewAutotuner() }, DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 8}); err != nil {
		t.Fatal(err)
	}
	if g.Leader() != 0 {
		t.Fatalf("Leader = %d, want 0", g.Leader())
	}
	dp.stats = statsAt(time.Second, 500*time.Millisecond, 0, 50, 10)
	if lead := g.Tick(); lead != 0 {
		t.Fatalf("Tick executed by %d, want 0", lead)
	}
	g.Fail(0)
	if g.Leader() != 1 {
		t.Fatalf("Leader after Fail(0) = %d, want 1", g.Leader())
	}
	dp.stats = statsAt(2*time.Second, time.Second, 0, 50, 20)
	if lead := g.Tick(); lead != 1 {
		t.Fatalf("Tick executed by %d, want 1", lead)
	}
	if g.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", g.Failovers())
	}
	// Replica 1 continued enforcement: it must have raised producers.
	tun, ok := g.Replica(1).Applied("s1")
	if !ok || tun.Producers < 2 {
		t.Fatalf("replica 1 Applied = %+v, %v", tun, ok)
	}
	g.Recover(0)
	if g.Leader() != 0 {
		t.Fatalf("Leader after Recover(0) = %d, want 0", g.Leader())
	}
}

func TestReplicaGroupFailoverDuringTraining(t *testing.T) {
	// Chaos scenario: the leader controller dies mid-run; the backup must
	// keep tuning the live workload without the consumer noticing.
	s := sim.New()
	env := conc.NewSimEnv(s)
	var consumed int
	var backupDecisions int
	s.Spawn("driver", func(p *sim.Process) {
		st, names := buildStage(env, 4000, time.Millisecond, 8)
		g := NewReplicaGroup(env, 50*time.Millisecond, 2)
		if err := g.Attach("stage", st, func() Algorithm { return NewAutotuner() }, DefaultPolicy(), Tuning{Producers: 1, BufferCapacity: 16}); err != nil {
			t.Error(err)
			return
		}
		g.Start()
		_ = st.SubmitPlan(names)
		for i, n := range names {
			if i == len(names)/3 {
				g.Fail(0) // leader dies one third of the way in
			}
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			consumed++
			env.Sleep(250 * time.Microsecond)
		}
		g.Stop()
		backupDecisions = len(g.Replica(1).History("stage"))
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if consumed != 4000 {
		t.Fatalf("consumed %d, want 4000 (training survived failover)", consumed)
	}
	if backupDecisions == 0 {
		t.Fatal("backup controller never made a tuning decision after failover")
	}
}

func TestReplicaGroupAllDead(t *testing.T) {
	g := NewReplicaGroup(conc.NewReal(), time.Second, 2)
	g.Fail(0)
	g.Fail(1)
	if g.Leader() != -1 {
		t.Fatalf("Leader = %d, want -1", g.Leader())
	}
	if lead := g.Tick(); lead != -1 {
		t.Fatalf("Tick = %d, want -1", lead)
	}
}

func TestReplicaGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty group")
		}
	}()
	NewReplicaGroup(conc.NewReal(), time.Second, 0)
}

// TestCapacityHalvingNeverWedgesProducers hammers the shrink path the
// autotuner exercises when it halves N mid-epoch: a consumer reads through
// the stage while a controller thread repeatedly halves and restores the
// buffer capacity. If a shrink below the current occupancy could wedge a
// blocked producer (or strand a waiting consumer), the deterministic sim
// run would end in a detected deadlock.
func TestCapacityHalvingNeverWedgesProducers(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	consumed := 0
	s.Spawn("driver", func(p *sim.Process) {
		st, names := buildStage(env, 2000, time.Millisecond, 8)
		st.SetProducers(8)
		stop := false
		env.Go("capacity-halver", func() {
			n := 16
			for !stop {
				n /= 2
				if n < 1 {
					n = 16
				}
				st.SetBufferCapacity(n)
				env.Sleep(10 * time.Millisecond)
			}
		})
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			consumed++
		}
		stop = true
		st.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err) // a wedged producer surfaces as a sim deadlock here
	}
	if consumed != 2000 {
		t.Fatalf("consumed %d of 2000 samples", consumed)
	}
}

// TestMonitorBufferTakesRate checks the shard-aggregated Takes counter
// flows into the monitor's derived rates.
func TestMonitorBufferTakesRate(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var rates Rates
	var ok bool
	s.Spawn("driver", func(p *sim.Process) {
		m := NewMonitor(env, 16)
		var stats core.StageStats
		stats.Buffer.Takes = 0
		m.Record("s1", stats)
		env.Sleep(time.Second)
		stats.Buffer.Takes = 500
		m.Record("s1", stats)
		rates, ok = m.Rate("s1", time.Minute)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Rate unavailable with two snapshots")
	}
	if rates.BufferTakesPerSec < 499 || rates.BufferTakesPerSec > 501 {
		t.Fatalf("BufferTakesPerSec = %v, want ≈500", rates.BufferTakesPerSec)
	}
}
