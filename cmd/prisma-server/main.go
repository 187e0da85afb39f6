// Command prisma-server runs a PRISMA data-plane stage over a local
// dataset directory and exposes it on a UNIX domain socket, for
// multi-process data loaders (the paper's PyTorch integration path).
//
// Usage:
//
//	prisma-server -dir /data/imagenet -socket /tmp/prisma.sock
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
	"github.com/dsrhaslab/prisma-go/internal/core"
)

// subFlags pairs each flag that only tunes an optional layer with the flag
// that turns the layer on. Set without it the flag would be silently
// ignored, so the server refuses to start instead.
var subFlags = []struct{ flag, requires string }{
	{"tenant-capacity", "tenancy"},
	{"tenant-burst", "tenancy"},
	{"max-queue-depth", "tenancy"},
	{"max-pooled-bytes", "tenancy"},
	{"degraded-factor", "tenancy"},
	{"shared-cache", "tenancy"},
	{"tenants", "tenancy"},
	{"slo", "tenancy"},
	{"slo-boost", "tenancy"},
	{"tiering-capacity", "tiering"},
	{"tiering-promote-after", "tiering"},
	{"tiering-compress", "tiering"},
	{"tiering-prefetch-next", "tiering"},
	{"tiering-max-tracked", "tiering"},
	{"peers", "node-id"},
	{"vnodes", "node-id"},
	{"pprof", "http"},
}

// checkSubFlags reports the first sub-flag set while its layer is off.
func checkSubFlags() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range subFlags {
		if on := flag.Lookup(r.requires).Value.String(); set[r.flag] && (on == "" || on == "false") {
			return fmt.Errorf("-%s requires -%s", r.flag, r.requires)
		}
	}
	return nil
}

// parsePeers decodes the -peers flag: NAME=SOCKET entries separated by
// commas, e.g. "node-1=/tmp/prisma-1.sock,node-2=/tmp/prisma-2.sock".
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, entry := range strings.Split(s, ",") {
		name, sock, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" || sock == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want NAME=SOCKET", entry)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("bad -peers entry %q: duplicate node %q", entry, name)
		}
		peers[name] = sock
	}
	return peers, nil
}

// parseTenantSpecs decodes the -tenants flag:
// NAME[:WEIGHT[:BYTES_PER_SEC[:SECRET]]] entries separated by commas. A
// NaN or infinite number passes here and is refused when Open registers it.
func parseTenantSpecs(s string) ([]prisma.TenantSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []prisma.TenantSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), ":", 4)
		if parts[0] == "" {
			return nil, fmt.Errorf("bad -tenants entry %q: empty name", entry)
		}
		spec := prisma.TenantSpec{Name: parts[0]}
		if len(parts) > 1 && parts[1] != "" {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad -tenants entry %q: weight %q", entry, parts[1])
			}
			spec.Weight = w
		}
		if len(parts) > 2 && parts[2] != "" {
			b, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || b < 0 {
				return nil, fmt.Errorf("bad -tenants entry %q: byte budget %q", entry, parts[2])
			}
			spec.BytesPerSecond = b
		}
		if len(parts) > 3 {
			spec.Secret = parts[3]
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// parseSLOSpecs decodes the -slo flag:
// TENANT:QUANTILE:THRESHOLD[:SHED_BUDGET[:WINDOW]] entries separated by
// commas, e.g. "trainer:0.99:20ms:0.05:30s". The named tenants must also
// appear in -tenants.
func parseSLOSpecs(s string, tenants []prisma.TenantSpec) error {
	if s == "" {
		return nil
	}
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 3 {
			return fmt.Errorf("bad -slo entry %q: want TENANT:QUANTILE:THRESHOLD[:SHED_BUDGET[:WINDOW]]", entry)
		}
		q, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || q <= 0 || q >= 1 {
			return fmt.Errorf("bad -slo entry %q: quantile %q", entry, parts[1])
		}
		threshold, err := time.ParseDuration(parts[2])
		if err != nil || threshold <= 0 {
			return fmt.Errorf("bad -slo entry %q: threshold %q", entry, parts[2])
		}
		slo := &prisma.SLOOptions{Quantile: q, Threshold: threshold}
		if len(parts) > 3 && parts[3] != "" {
			sb, err := strconv.ParseFloat(parts[3], 64)
			if err != nil || sb < 0 || sb > 1 {
				return fmt.Errorf("bad -slo entry %q: shed budget %q", entry, parts[3])
			}
			slo.ShedBudget = sb
		}
		if len(parts) > 4 && parts[4] != "" {
			w, err := time.ParseDuration(parts[4])
			if err != nil || w <= 0 {
				return fmt.Errorf("bad -slo entry %q: window %q", entry, parts[4])
			}
			slo.Window = w
		}
		found := false
		for i := range tenants {
			if tenants[i].Name == parts[0] {
				tenants[i].SLO = slo
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bad -slo entry %q: tenant %q not in -tenants", entry, parts[0])
		}
	}
	return nil
}

func main() {
	stage := core.DefaultStageConfig()
	var (
		dir          = flag.String("dir", "", "dataset root directory (required)")
		socket       = flag.String("socket", "/tmp/prisma.sock", "UNIX socket path to serve on")
		producers    = flag.Int("producers", stage.InitialProducers, "initial producer threads t")
		maxProducers = flag.Int("max-producers", stage.MaxProducers, "maximum producer threads")
		buffer       = flag.Int("buffer", stage.InitialBufferCapacity, "initial buffer capacity N (samples)")
		maxBuffer    = flag.Int("max-buffer", stage.MaxBufferCapacity, "maximum buffer capacity")
		noAutotune   = flag.Bool("no-autotune", false, "disable the control-plane feedback loop")
		interval     = flag.Duration("interval", 500*time.Millisecond, "control loop interval")
		statsEvery   = flag.Duration("stats", 0, "print stats every interval (0 = off)")
		traceFile    = flag.String("trace", "", "write every device read as a span to this JSON-lines file on shutdown (prisma-trace summary|timeline)")
		httpAddr     = flag.String("http", "", "serve the HTTP admin API (/stats, /metrics, /tenants, /debug/bundle, POST /tuning?KEY=VALUE, ...) on this address, e.g. :9090")
		sampling     = flag.Float64("sampling", 0, "sample-lifecycle trace probability in [0, 1] (0 = off)")
		spanFile     = flag.String("span-file", "", "write lifecycle spans to this JSON-lines file on shutdown (prisma-trace attribute; implies -sampling 1 when unset)")
		enablePprof  = flag.Bool("pprof", false, "mount /debug/pprof/ on the admin API")
		noPool       = flag.Bool("no-pool", false, "disable the pooled sample buffers (every hop allocates)")
		poolMin      = flag.Int("pool-min", 0, "smallest pool size class in bytes (0 = default 4KiB)")
		poolMax      = flag.Int("pool-max", 0, "largest pool size class in bytes (0 = default 4MiB)")
		poolCap      = flag.Int("pool-cap", 0, "free buffers retained per size class (0 = 8MiB worth per class, at least 64)")

		tenancy        = flag.Bool("tenancy", false, "enable multi-tenant admission control (per-tenant QoS and overload shedding)")
		tenantCapacity = flag.Float64("tenant-capacity", 0, "total read rate (reads/s) shared by tenants (0 = default 10000)")
		tenantBurst    = flag.Float64("tenant-burst", 0, "per-tenant burst allowance (0 = capacity/4)")
		maxQueueDepth  = flag.Int("max-queue-depth", 0, "queue-depth saturation threshold for load shedding (0 = default 4096, -1 = off)")
		maxPooledBytes = flag.Int64("max-pooled-bytes", 0, "outstanding pooled-byte saturation threshold (0 = off)")
		degradedFactor = flag.Float64("degraded-factor", 0, "capacity scale while the backend breaker is open (0 = default 0.5)")
		sharedCache    = flag.Int64("shared-cache", 0, "shared read cache capacity in bytes so co-located tenants don't multiply backend load (0 = off; with -tiering it adds to -tiering-capacity: one budget)")
		tenantSpecs    = flag.String("tenants", "", "pre-registered tenants as NAME[:WEIGHT[:BYTES_PER_SEC[:SECRET]]],...")
		sloSpecs       = flag.String("slo", "", "per-tenant latency SLOs as TENANT:QUANTILE:THRESHOLD[:SHED_BUDGET[:WINDOW]],... e.g. trainer:0.99:20ms (tenants must appear in -tenants)")
		sloBoost       = flag.Float64("slo-boost", 0, "arbitration-weight boost factor while a tenant's SLO is breached (0 = default 2; must be > 1)")

		tieringOn      = flag.Bool("tiering", false, "enable the fast-tier backend stage (promote hot samples into a byte-budgeted tier)")
		tieringCap     = flag.Int64("tiering-capacity", 0, "fast-tier byte budget (0 = default 256MiB)")
		tieringAfter   = flag.Int("tiering-promote-after", 0, "slow-tier reads of a sample before it is a candidate for the tier; a full tier admits it only over strictly colder residents (0 = default 1)")
		tieringComp    = flag.Bool("tiering-compress", false, "encode fast-tier residents (LZ, decoded in place on hits) when the submitted plans still being read do not fit the budget raw")
		tieringPref    = flag.Bool("tiering-prefetch-next", false, "warm next-epoch cold samples into free fast-tier space when a plan is submitted")
		tieringTracked = flag.Int("tiering-max-tracked", 0, "access-count map bound before decay sweeps, which age residents too (0 = default 65536)")

		nodeID   = flag.String("node-id", "", "this node's name in the cluster placement ring (enables the multi-node prefetch fabric with -peers)")
		peerList = flag.String("peers", "", "peer nodes as NAME=SOCKET,... e.g. node-1=/tmp/prisma-1.sock")
		vnodes   = flag.Int("vnodes", 0, "consistent-hash virtual nodes per ring member (0 = default 64; all nodes must agree)")
	)
	for _, r := range subFlags {
		f := flag.Lookup(r.flag)
		f.Usage += " (requires -" + r.requires + ")"
	}
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "prisma-server: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := checkSubFlags(); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	tenants, err := parseTenantSpecs(*tenantSpecs)
	if err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	if err := parseSLOSpecs(*sloSpecs, tenants); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	peers, err := parsePeers(*peerList)
	if err != nil {
		log.Fatalf("prisma-server: %v", err)
	}

	p, err := prisma.Open(prisma.Options{
		Dir:              *dir,
		InitialProducers: *producers,
		MaxProducers:     *maxProducers,
		InitialBuffer:    *buffer,
		MaxBuffer:        *maxBuffer,
		DisableAutoTune:  *noAutotune,
		ControlInterval:  *interval,
		TraceFile:        *traceFile,
		TraceSampling:    *sampling,
		SpanFile:         *spanFile,
		EnablePprof:      *enablePprof,
		BufferPool: prisma.BufferPoolOptions{
			Disable:     *noPool,
			MinSize:     *poolMin,
			MaxSize:     *poolMax,
			PerClassCap: *poolCap,
		},
		Tenancy: prisma.TenancyOptions{
			Enable:           *tenancy,
			Capacity:         *tenantCapacity,
			Burst:            *tenantBurst,
			MaxQueueDepth:    *maxQueueDepth,
			MaxPooledBytes:   *maxPooledBytes,
			DegradedFactor:   *degradedFactor,
			SharedCacheBytes: *sharedCache,
			SLOBoostFactor:   *sloBoost,
			Tenants:          tenants,
		},
		Tiering: prisma.TieringOptions{
			Enable:            *tieringOn,
			CapacityBytes:     *tieringCap,
			PromoteAfter:      *tieringAfter,
			MaxTrackedNames:   *tieringTracked,
			Compress:          *tieringComp,
			PrefetchNextEpoch: *tieringPref,
		},
		Cluster: prisma.ClusterOptions{
			Enable:       *nodeID != "",
			NodeID:       *nodeID,
			Peers:        peers,
			VirtualNodes: *vnodes,
		},
	})
	if err != nil {
		log.Fatalf("prisma-server: %v", err)
	}

	// A stale socket from a previous run would block the listener.
	_ = os.Remove(*socket)
	if err := p.ServeUnix(*socket); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	log.Printf("prisma-server: serving %d files (%.1f MiB) from %s on %s",
		p.Files(), float64(p.TotalBytes())/(1<<20), *dir, *socket)
	if *nodeID != "" {
		log.Printf("prisma-server: cluster node %q in a %d-node ring (clairvoyant partitioning)",
			*nodeID, len(peers)+1)
	}

	if *httpAddr != "" {
		go func() {
			log.Printf("prisma-server: admin API on %s", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, p.AdminHandler()); err != nil {
				log.Printf("prisma-server: admin API: %v", err)
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				s := p.Stats()
				log.Printf("stats: reads=%d hits=%d bypasses=%d errors=%d t=%d N=%d buffered=%d queue=%d",
					s.Reads, s.Hits, s.Bypasses, s.Errors, s.Producers, s.BufferCapacity, s.BufferLen, s.QueueLen)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("prisma-server: shutting down")
	_ = os.Remove(*socket)
	// Close writes the I/O trace and span file: a run whose trace was lost
	// must not exit as if it had been written.
	if err := p.Close(); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
}
