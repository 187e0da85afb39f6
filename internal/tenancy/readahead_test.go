package tenancy

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// TestTryAdmit: the non-blocking admission charges like Admit when it can
// and refuses — without waiting, without counting a shed — when it cannot.
func TestTryAdmit(t *testing.T) {
	runSim(t, func(env conc.Env) {
		over := false
		m, err := New(env, Config{Capacity: 10, Burst: 2, MaxQueueDepth: 1, Load: func() Load {
			if over {
				return Load{QueueDepth: 5}
			}
			return Load{}
		}})
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Register(Spec{Name: "metered", BytesPerSecond: 1000})
		row := func(name string) TenantStats {
			for _, ts := range m.Stats().Tenants {
				if ts.Name == name {
					return ts
				}
			}
			t.Fatalf("no tenant %q", name)
			return TenantStats{}
		}
		now := env.Now()
		if !m.TryAdmit("metered") || !m.TryAdmit("metered") {
			t.Fatal("TryAdmit refused with tokens on hand")
		}
		if m.TryAdmit("metered") {
			t.Fatal("TryAdmit admitted past the burst")
		}
		if env.Now() != now {
			t.Fatal("TryAdmit waited")
		}
		if got := row("metered"); got.Admitted != 2 || got.Shed != 0 {
			t.Fatalf("admitted %d, shed %d; want 2, 0", got.Admitted, got.Shed)
		}

		// Byte debt refuses, tokens or not.
		env.Sleep(time.Second)
		m.ObserveRead("metered", 5000, nil)
		if m.TryAdmit("metered") {
			t.Fatal("TryAdmit admitted a tenant in byte debt")
		}
		// So does an overloaded manager, for everybody.
		over = true
		m.Tick(100 * time.Millisecond)
		if m.TryAdmit(DefaultTenant) {
			t.Fatal("TryAdmit admitted while the manager is overloaded")
		}
		over = false
		m.Tick(100 * time.Millisecond)
		if !m.TryAdmit(DefaultTenant) {
			t.Fatal("TryAdmit still refusing after the overload cleared")
		}
		if got := row("metered"); got.Admitted != 2 || got.Shed != 0 {
			t.Fatalf("refusals moved counters: admitted %d, shed %d", got.Admitted, got.Shed)
		}
	})
}

// readAheadRun reads one epoch as one IPC connection of the given tenant
// would — each entry by name, then (with ahead set) up to 8 following
// entries through TakeAhead — and reports when each sample was delivered
// and the tenant's counters at the end.
func readAheadRun(t *testing.T, ahead bool) (delivered []time.Duration, stats TenantStats, pushed int64) {
	const (
		n     = 300
		rate  = 200 // reads/s
		burst = 40
	)
	runSim(t, func(env conc.Env) {
		samples := make([]dataset.Sample, n)
		names := make([]string, n)
		for i := range samples {
			samples[i] = dataset.Sample{Name: fmt.Sprintf("s%03d", i), Size: int64(1000 + i)}
			names[i] = samples[i].Name
		}
		dev, err := storage.NewDevice(env, storage.DeviceSpec{BaseLatency: 50 * time.Microsecond, BytesPerSecond: 1e12, Channels: 8})
		if err != nil {
			t.Fatal(err)
		}
		man := dataset.MustNew(samples)
		backend := storage.NewModeledBackend(man, dev)
		pf, err := core.NewPrefetcher(env, backend, man, core.PrefetcherConfig{
			InitialProducers: 4, MaxProducers: 4, InitialBufferCapacity: 64, MaxBufferCapacity: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := core.NewStage(env, backend, pf)
		m, err := New(env, Config{Capacity: rate, Burst: burst})
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Register(Spec{Name: "job", BytesPerSecond: 1e9})
		st.SetTenantGate(m)
		pf.Start()
		defer st.Close()

		res, err := st.SubmitEpoch(names)
		if err != nil {
			t.Fatal(err)
		}
		env.Sleep(10 * time.Millisecond) // let the producers fill the buffer
		delivered = make([]time.Duration, n)
		for i := 0; i < n; {
			_, at, err := st.Read(core.ReadRequest{Name: names[i], Tenant: "job"})
			if err != nil || at.Index != i {
				t.Fatalf("Read(%s) at %+v: %v", names[i], at, err)
			}
			delivered[i] = env.Now()
			i++
			for k := 0; ahead && k < 8 && i < n; k++ {
				before := env.Now()
				d, ok := st.TakeAhead("job", core.PlanPos{Epoch: res.Epoch, Index: i}, 0)
				if env.Now() != before {
					t.Fatalf("TakeAhead(%d) waited %v", i, env.Now()-before)
				}
				if !ok {
					break
				}
				if d.Name != names[i] {
					t.Fatalf("TakeAhead(%d) = %s", i, d.Name)
				}
				delivered[i] = env.Now()
				i++
			}
		}
		for _, ts := range m.Stats().Tenants {
			if ts.Name == "job" {
				stats = ts
			}
		}
		pushed = st.Stats().ReadAheadSamples
	})
	return delivered, stats, pushed
}

// TestReadAheadRespectsTenantRate is the sim half of the read-ahead
// contract with tenancy: pushed samples spend the same budget as requested
// ones, so a rate-limited tenant gets its rate and no more; extras only
// ever take tokens that are on hand, so no requested read waits longer
// than it would have without them; and the tenant's counters cannot tell
// the two paths apart.
func TestReadAheadRespectsTenantRate(t *testing.T) {
	plain, plainStats, plainPushed := readAheadRun(t, false)
	ahead, aheadStats, aheadPushed := readAheadRun(t, true)
	if plainPushed != 0 || aheadPushed == 0 {
		t.Fatalf("pushed samples: plain %d (want 0), ahead %d (want > 0)", plainPushed, aheadPushed)
	}
	const rate, burst = 200.0, 40.0
	n := len(ahead)
	window := (ahead[n-1] - ahead[0]).Seconds()
	if got, limit := float64(n), rate*window+burst+1; got > limit {
		t.Fatalf("tenant received %v samples in %.3fs: more than rate x time + burst = %.1f", got, window, limit)
	}
	for i := range ahead {
		if ahead[i] > plain[i] {
			t.Fatalf("sample %d delivered at %v with read-ahead, %v without: extras delayed a read", i, ahead[i], plain[i])
		}
	}
	if aheadStats.Admitted != plainStats.Admitted || aheadStats.BytesRead != plainStats.BytesRead ||
		aheadStats.Shed != plainStats.Shed || aheadStats.Errors != plainStats.Errors {
		t.Fatalf("tenant counters differ:\nplain %+v\nahead %+v", plainStats, aheadStats)
	}
	if aheadStats.Admitted != int64(n) || aheadStats.Latency.Count != plainStats.Latency.Count {
		t.Fatalf("admitted %d, latency observations %d vs %d; want %d each",
			aheadStats.Admitted, aheadStats.Latency.Count, plainStats.Latency.Count, n)
	}
}
