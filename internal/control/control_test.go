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

// newController builds a controller over dp with the autotuner and the
// default policy; like buildStage it panics on an error, which only a bad
// test can cause.
func newController(env conc.Env, interval time.Duration, dp DataPlane, initial Tuning) *Controller {
	c, err := NewController(env, interval, dp, NewAutotuner(), DefaultPolicy(), initial)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewControllerAppliesInitialTuning(t *testing.T) {
	dp := &fakeDP{}
	c := newController(conc.NewReal(), time.Second, dp, Tuning{Producers: 3, BufferCapacity: 10})
	if len(dp.producers) != 1 || dp.producers[0] != 3 {
		t.Fatalf("SetProducers calls = %v, want [3]", dp.producers)
	}
	if len(dp.buffers) != 1 || dp.buffers[0] != 10 {
		t.Fatalf("SetBufferCapacity calls = %v, want [10]", dp.buffers)
	}
	if got := c.Applied(); got != (Tuning{Producers: 3, BufferCapacity: 10}) {
		t.Fatalf("Applied = %+v", got)
	}
	// The initial tuning is clamped into the policy before it is applied.
	dp = &fakeDP{}
	c = newController(conc.NewReal(), time.Second, dp, Tuning{Producers: 100, BufferCapacity: 1})
	if want := (Tuning{Producers: 32, BufferCapacity: 4}); c.Applied() != want || dp.producers[0] != 32 || dp.buffers[0] != 4 {
		t.Fatalf("Applied = %+v, calls %v %v; want %+v", c.Applied(), dp.producers, dp.buffers, want)
	}
}

// TestNewControllerRejectsBadPolicyAndInterval: a refused controller leaves
// its stage as it found it — no knob is set before the arguments check out.
func TestNewControllerRejectsBadPolicyAndInterval(t *testing.T) {
	badBand := DefaultPolicy()
	badBand.StarvationLow = badBand.StarvationHigh
	cases := []struct {
		name     string
		interval time.Duration
		pol      Policy
	}{
		{"zero policy", time.Second, Policy{}},
		{"inverted starvation band", time.Second, badBand},
		{"zero interval", 0, DefaultPolicy()},
		{"negative interval", -time.Second, DefaultPolicy()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dp := &fakeDP{}
			if _, err := NewController(conc.NewReal(), tc.interval, dp, NewAutotuner(), tc.pol, Tuning{Producers: 2, BufferCapacity: 8}); err == nil {
				t.Fatal("accepted")
			}
			if len(dp.producers) != 0 || len(dp.buffers) != 0 {
				t.Fatalf("refused controller set knobs: producers %v, buffers %v", dp.producers, dp.buffers)
			}
		})
	}
}

func TestControllerTickAppliesDecision(t *testing.T) {
	dp := &fakeDP{}
	c := newController(conc.NewReal(), time.Second, dp, Tuning{Producers: 1, BufferCapacity: 8})
	// Starving snapshot: controller must raise producers on tick.
	dp.stats = statsAt(time.Second, 500*time.Millisecond, 0, 50, 10)
	c.Tick()
	if tun := c.Applied(); tun.Producers != 2 {
		t.Fatalf("Applied = %+v, want producers 2", tun)
	}
	recs := c.Decisions()
	if len(recs) != 1 || recs[0].Rule != "raise-producers" || recs[0].Before.Producers != 1 || recs[0].After.Producers != 2 {
		t.Fatalf("Decisions = %+v", recs)
	}
	if c.Ticks() != 1 {
		t.Fatalf("Ticks = %d, want 1", c.Ticks())
	}
}

func TestControllerAutonomousLoopInSim(t *testing.T) {
	s := sim.New()
	env := conc.NewSimEnv(s)
	var ticks int64
	s.Spawn("driver", func(p *sim.Process) {
		c := newController(env, 100*time.Millisecond, &fakeDP{}, Tuning{Producers: 1, BufferCapacity: 8})
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
	backend := storage.NewModeledBackend(m, dev)
	st, err := core.NewStage(env, backend, m, core.StageConfig{
		InitialProducers:      1,
		MaxProducers:          32,
		InitialBufferCapacity: 16,
		MaxBufferCapacity:     1024,
	})
	if err != nil {
		panic(err)
	}
	st.Start()
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
		ctl := newController(env, 50*time.Millisecond, st, Tuning{Producers: 1, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(250 * time.Microsecond) // consumer compute: 4000/s
		}
		applied = ctl.Applied()
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
		ctl := newController(env, 50*time.Millisecond, st, Tuning{Producers: 8, BufferCapacity: 16})
		ctl.Start()
		_ = st.SubmitPlan(names)
		for _, n := range names {
			if _, _, err := st.Read(core.ReadRequest{Name: n}); err != nil {
				t.Errorf("Read(%s): %v", n, err)
				break
			}
			env.Sleep(2 * time.Millisecond) // 500/s
		}
		applied = ctl.Applied()
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

// replicaGroup is the replicated per-stage controller: a LeaderGroup of n
// controllers that all hold dp, each with its own autotuner, so any of them
// can take over.
func replicaGroup(env conc.Env, interval time.Duration, n int, dp DataPlane, initial Tuning) *LeaderGroup[*Controller] {
	replicas := make([]*Controller, n)
	for i := range replicas {
		replicas[i] = newController(env, interval, dp, initial)
	}
	return NewLeaderGroup(env, interval, replicas)
}

func TestReplicaGroupLeaderAndFailover(t *testing.T) {
	dp := &fakeDP{}
	g := replicaGroup(conc.NewReal(), time.Second, 3, dp, Tuning{Producers: 1, BufferCapacity: 8})
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
	if tun := g.Replica(1).Applied(); tun.Producers < 2 {
		t.Fatalf("replica 1 Applied = %+v", tun)
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
		g := replicaGroup(env, 50*time.Millisecond, 2, st, Tuning{Producers: 1, BufferCapacity: 16})
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
		for _, rec := range g.Replica(1).Decisions() {
			if rec.After != rec.Before {
				backupDecisions++
			}
		}
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
	env := conc.NewReal()
	tun := Tuning{Producers: 1, BufferCapacity: 8}
	g := NewLeaderGroup(env, time.Second, []*Controller{newController(env, time.Second, &fakeDP{}, tun), newController(env, time.Second, &fakeDP{}, tun)})
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
	NewLeaderGroup[*Controller](conc.NewReal(), time.Second, nil)
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

// TestLoopsStartOnceAndStopAfterTheirSleep: the controller's and the leader
// group's loops panic on a second Start, tick once per interval, and end
// after the sleep a Stop lands in, leaving nothing running.
func TestLoopsStartOnceAndStopAfterTheirSleep(t *testing.T) {
	const interval = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		loop func(env conc.Env, c *Controller) (start, stop func())
	}{
		{"controller", func(env conc.Env, c *Controller) (func(), func()) { return c.Start, c.Stop }},
		{"leader-group", func(env conc.Env, c *Controller) (func(), func()) {
			g := NewLeaderGroup(env, interval, []*Controller{c})
			return g.Start, g.Stop
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			env := conc.NewSimEnv(s)
			c := newController(env, interval, &fakeDP{}, Tuning{Producers: 1, BufferCapacity: 8})
			var again any
			s.Spawn("driver", func(*sim.Process) {
				start, stop := tc.loop(env, c)
				start()
				func() {
					defer func() { again = recover() }()
					start()
				}()
				env.Sleep(interval * 5 / 2)
				stop()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if again == nil {
				t.Error("a second Start did not panic")
			}
			if c.Ticks() != 2 || s.Now() != 3*interval {
				t.Errorf("%d ticks, loop ended at %v; want 2 ticks and the end at %v", c.Ticks(), s.Now(), 3*interval)
			}
		})
	}
}
