package prisma

// Cluster mode must not cost the QoS plane its view of the reads: with the
// fabric in front of the stage, every read this node serves from its own
// stage for its own readers is admitted, byte-charged and SLO-observed as
// the request's tenant exactly as without it — in-process and over the
// socket. Before the fabric passed the whole request through, these reads
// took the one stage entry point that skipped the gate (default-tenant
// Admitted 0 / BytesRead 0 however many reads were served).

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// tenantNamed picks one tenant's row out of a node's QoS snapshot.
func tenantNamed(t *testing.T, p *Prisma, name string) TenantStats {
	t.Helper()
	snap, err := p.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Tenants {
		if ts.Name == name {
			return ts
		}
	}
	t.Fatalf("tenant %q not in snapshot %+v", name, snap)
	return TenantStats{}
}

func TestClusterLoopbackAdmission(t *testing.T) {
	for _, nNodes := range []int{1, 2} {
		t.Run(map[int]string{1: "one-node", 2: "two-node"}[nNodes], func(t *testing.T) {
			const files = 60
			dir := makeDataset(t, files)
			nodes := startClusterNodes(t, dir, nNodes, func(o *Options) {
				o.Tenancy = TenancyOptions{Enable: true, Capacity: 1e6, Tenants: []TenantSpec{{Name: "job-a"}}}
			})
			p0 := nodes[0].p
			var members []string
			for _, n := range nodes {
				members = append(members, n.name)
			}
			ring, err := distrib.NewRing(members, 0) // the placement every node built
			if err != nil {
				t.Fatal(err)
			}
			full := p0.ShuffledFileList(7, 0)
			for _, n := range nodes {
				if err := n.p.SubmitPlan(full); err != nil {
					t.Fatal(err)
				}
			}
			untagged, err := Dial(nodes[0].sock)
			if err != nil {
				t.Fatal(err)
			}
			defer untagged.Close()
			named, err := DialWithOptions(nodes[0].sock, DialOptions{Tenant: "job-a"})
			if err != nil {
				t.Fatal(err)
			}
			defer named.Close()

			// A third of the epoch in-process, a third over an untagged
			// connection, a third over a connection that said Hello: the
			// first two are the default tenant's and go by ring ownership,
			// the last stays on this node whoever owns the name.
			var ownedReads, ownedBytes, namedBytes int64
			for i, name := range full {
				info, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				var got []byte
				switch i % 3 {
				case 0:
					got, err = p0.Read(name)
				case 1:
					got, err = untagged.Read(name)
				case 2:
					got, err = named.Read(name)
					namedBytes += info.Size()
				}
				if err != nil || int64(len(got)) != info.Size() {
					t.Fatalf("read %d of %s: %d bytes, %v", i, name, len(got), err)
				}
				if i%3 != 2 && ring.Owner(name) == nodes[0].name {
					ownedReads++
					ownedBytes += info.Size()
				}
			}

			cs, err := p0.ClusterStats()
			if err != nil {
				t.Fatal(err)
			}
			if cs.LocalReads != ownedReads || cs.LocalReads+cs.PeerReads != files*2/3 || cs.Failovers != 0 {
				t.Fatalf("fabric split %+v, want %d local of %d routed and no failovers", cs, ownedReads, files*2/3)
			}
			if nNodes == 2 && cs.PeerReads == 0 {
				t.Fatal("degenerate placement: nothing was forwarded")
			}
			def := tenantNamed(t, p0, "default")
			if def.Admitted != ownedReads || def.BytesRead != ownedBytes || def.Shed != 0 {
				t.Fatalf("default tenant admitted %d / %d bytes, want the %d owned reads / %d bytes", def.Admitted, def.BytesRead, ownedReads, ownedBytes)
			}
			if a := tenantNamed(t, p0, "job-a"); a.Admitted != files/3 || a.BytesRead != namedBytes {
				t.Fatalf("job-a admitted %d / %d bytes, want %d / %d", a.Admitted, a.BytesRead, files/3, namedBytes)
			}
			// Forwarded reads are charged on neither side: not above (the
			// requester's default tenant saw only its owned reads), and not on
			// the owner, whose gate the peer serve passes unseen.
			if nNodes == 2 {
				st1, err := nodes[1].p.ClusterStats()
				if err != nil {
					t.Fatal(err)
				}
				if st1.PeerServes != cs.PeerReads {
					t.Fatalf("owner served %d forwards, requester sent %d", st1.PeerServes, cs.PeerReads)
				}
				for _, name := range []string{"default", "job-a"} {
					if ts := tenantNamed(t, nodes[1].p, name); ts.Admitted != 0 || ts.BytesRead != 0 {
						t.Fatalf("owner node charged %s for peer serves: %+v", name, ts)
					}
				}
			}
			// Each connection holds its last reply's arena leases until its
			// next frame (DESIGN.md §29): a ping ends them, and the server
			// drops an inline reply's lease just after writing it.
			for _, c := range []*Client{untagged, named} {
				if err := c.Ping(); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(2 * time.Second); p0.Stats().PoolOutstanding != 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if out := p0.Stats().PoolOutstanding; out != 0 {
				t.Fatalf("%d pooled leases outstanding", out)
			}
		})
	}
}

// A default tenant capped at R reads/s is held to it in cluster mode too.
func TestClusterLoopbackAdmissionThrottles(t *testing.T) {
	const (
		files = 48
		rate  = 200 // reads/s
		burst = 4
	)
	dir := makeDataset(t, files)
	nodes := startClusterNodes(t, dir, 1, func(o *Options) {
		// No arbitration tick inside the test: the bucket keeps the rate it
		// was registered with.
		o.Tenancy = TenancyOptions{Enable: true, Capacity: rate, Burst: burst, TickInterval: time.Hour}
	})
	p := nodes[0].p
	c, err := Dial(nodes[0].sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names := p.ShuffledFileList(1, 0)
	start := time.Now()
	for i, name := range names {
		var err error
		if i%2 == 0 {
			_, err = p.Read(name)
		} else {
			_, err = c.Read(name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// files-burst reads had to wait for a token each; allow a wide margin
	// below the exact (files-burst)/rate = 220 ms.
	if elapsed, floor := time.Since(start), 150*time.Millisecond; elapsed < floor {
		t.Fatalf("%d reads at %d/s took %v, want >= %v: the cap is not enforced", files, rate, elapsed, floor)
	}
	if wait := p.Stats().ThrottleWait; wait < 100*time.Millisecond {
		t.Fatalf("ThrottleWait %v: reads were not queued at the gate", wait)
	}
	if def := tenantNamed(t, p, "default"); def.Admitted != files {
		t.Fatalf("default admitted %d, want %d", def.Admitted, files)
	}
}

// An overloaded gate sheds with the typed ErrOverloaded on both transports.
func TestClusterLoopbackAdmissionSheds(t *testing.T) {
	dir := makeDataset(t, 8)
	nodes := startClusterNodes(t, dir, 1, func(o *Options) {
		// One live pooled lease is over the pooled-byte threshold, so the
		// test enters overload by holding a sample; one token a second means
		// a second read finds the bucket empty.
		o.Tenancy = TenancyOptions{Enable: true, Capacity: 1, Burst: 1, TickInterval: 5 * time.Millisecond, MaxPooledBytes: 1}
	})
	p := nodes[0].p
	names := p.ShuffledFileList(1, 0)
	held, err := p.ReadSample(names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := p.Tenants()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Overloaded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holding a lease over MaxPooledBytes never tripped overload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	untagged, err := Dial(nodes[0].sock)
	if err != nil {
		t.Fatal(err)
	}
	defer untagged.Close()
	named, err := DialWithOptions(nodes[0].sock, DialOptions{Tenant: "job-z"})
	if err != nil {
		t.Fatal(err)
	}
	defer named.Close()
	transports := []struct {
		name string
		read func(string) ([]byte, error)
	}{{"in-process", p.Read}, {"untagged socket", untagged.Read}, {"named socket", named.Read}}
	for _, tr := range transports {
		// At most one of these finds a token; the rest must be shed, typed.
		var shed error
		for i := 0; i < 3 && shed == nil; i++ {
			_, shed = tr.read(names[1+i])
		}
		if !errors.Is(shed, ErrOverloaded) {
			t.Fatalf("%s: read under overload = %v, want ErrOverloaded", tr.name, shed)
		}
	}
	if st := p.Stats(); st.TenantsShed < int64(len(transports)) {
		t.Fatalf("TenantsShed %d, want >= %d", st.TenantsShed, len(transports))
	}
}

// The fabric passes the trace context through: an in-process cluster read is
// head-sampled once, by the stage, so the sampled fraction is the configured
// probability (it was 2p − p² while the fabric drew first and handed an
// unsampled context to a stage that drew again).
func TestClusterSamplingDrawnOnce(t *testing.T) {
	const (
		reads = 20_000
		prob  = 0.5
	)
	dir := makeDataset(t, 8)
	nodes := startClusterNodes(t, dir, 1, func(o *Options) {
		o.TraceSampling = prob
		// The shared cache records exactly one span (hit or miss) for every
		// sampled read that reaches it — the test's way of seeing the
		// decision. No plan is submitted, so nothing else draws.
		o.Tenancy = TenancyOptions{Enable: true, Capacity: 1e9, SharedCacheBytes: 1 << 20}
	})
	p := nodes[0].p
	names := p.ShuffledFileList(1, 0)
	sampled := map[uint64]bool{}
	harvest := func() {
		for _, stage := range []string{obs.StageCacheHit, obs.StageCacheMiss} {
			for _, sp := range p.tracer.SpansFor(stage) {
				sampled[sp.Trace] = true
			}
		}
	}
	for i := 0; i < reads; i++ {
		s, err := p.ReadSample(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		if i%2000 == 1999 { // well inside the span ring's 4096
			harvest()
		}
	}
	harvest()
	if frac := float64(len(sampled)) / reads; frac < prob-0.03 || frac > prob+0.03 {
		t.Fatalf("sampled fraction %.4f over %d reads, want %.2f ± 0.03", frac, reads, prob)
	}
}
