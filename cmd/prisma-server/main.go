// Command prisma-server runs a PRISMA data-plane stage over a local
// dataset directory and exposes it on a UNIX domain socket, for
// multi-process data loaders (the paper's PyTorch integration path).
//
// Usage:
//
//	prisma-server -dir /data/imagenet -socket /tmp/prisma.sock
package main

import (
	"errors"
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
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// subFlags pairs each flag that only tunes an optional layer with the flag
// that turns the layer on. Set without it the flag would be silently
// ignored, so the server refuses to start instead.
var subFlags = []struct{ flag, requires string }{
	{"tenant-capacity", "tenancy"},
	{"max-queue-depth", "tenancy"},
	{"shared-cache", "tenancy"},
	{"tenants", "tenancy"},
	{"slo", "tenancy"},
	{"tiering-capacity", "tiering"},
	{"tiering-compress", "tiering"},
	{"tiering-prefetch-next", "tiering"},
	{"peers", "node-id"},
	{"pprof", "http"},
}

// checkSubFlags reports the first sub-flag set on fs while its layer is
// off.
func checkSubFlags(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range subFlags {
		if on := fs.Lookup(r.requires).Value.String(); set[r.flag] && (on == "" || on == "false") {
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

// server is what prisma-server's flags set: the Options it opens, and the
// three flags that act outside them.
type server struct {
	opts       prisma.Options
	socket     string
	httpAddr   string
	statsEvery time.Duration
}

// errNoDir reports a command line without -dir.
var errNoDir = errors.New("-dir is required")

// parseFlags declares every prisma-server flag on fs and parses args: the
// one mapping from the command line to Options.
func parseFlags(fs *flag.FlagSet, args []string) (server, error) {
	var s server
	o := &s.opts
	stage := core.DefaultStageConfig()
	fs.StringVar(&o.Dir, "dir", "", "dataset root directory (required)")
	fs.StringVar(&s.socket, "socket", "/tmp/prisma.sock", "UNIX socket path to serve on")
	fs.IntVar(&o.InitialProducers, "producers", stage.InitialProducers, "initial producer threads t")
	fs.IntVar(&o.MaxProducers, "max-producers", stage.MaxProducers, "maximum producer threads")
	fs.IntVar(&o.InitialBuffer, "buffer", stage.InitialBufferCapacity, "initial buffer capacity N (samples)")
	fs.IntVar(&o.MaxBuffer, "max-buffer", stage.MaxBufferCapacity, "maximum buffer capacity")
	fs.BoolVar(&o.DisableAutoTune, "no-autotune", false, "disable the control-plane feedback loop")
	fs.DurationVar(&o.ControlInterval, "interval", control.DefaultControlInterval, "control loop interval")
	fs.DurationVar(&s.statsEvery, "stats", 0, "print stats every interval (0 = off)")
	fs.StringVar(&o.TraceFile, "trace", "", "write every device read as a span to this JSON-lines file on shutdown (prisma-trace summary|timeline)")
	fs.StringVar(&s.httpAddr, "http", "", "serve the HTTP admin API (/stats, /metrics, /tenants, /debug/bundle, POST /tuning?KEY=VALUE, ...) on this address, e.g. :9090")
	fs.Float64Var(&o.TraceSampling, "sampling", 0, "sample-lifecycle trace probability in [0, 1] (0 = off)")
	fs.StringVar(&o.SpanFile, "span-file", "", "write lifecycle spans to this JSON-lines file on shutdown (prisma-trace attribute; implies -sampling 1 when unset)")
	fs.BoolVar(&o.EnablePprof, "pprof", false, "mount /debug/pprof/ on the admin API")
	fs.BoolVar(&o.BufferPool.Disable, "no-pool", false, "disable the pooled sample buffers (every hop allocates)")

	fs.BoolVar(&o.Tenancy.Enable, "tenancy", false, "enable multi-tenant admission control (per-tenant QoS and overload shedding)")
	fs.Float64Var(&o.Tenancy.Capacity, "tenant-capacity", 0, fmt.Sprintf("total read rate (reads/s) shared by tenants (0 = default %d)", tenancy.DefaultCapacity))
	fs.IntVar(&o.Tenancy.MaxQueueDepth, "max-queue-depth", 0, fmt.Sprintf("queue-depth saturation threshold for load shedding (0 = default %d, -1 = off)", tenancy.DefaultMaxQueueDepth))
	fs.Int64Var(&o.Tenancy.SharedCacheBytes, "shared-cache", 0, "shared read cache capacity in bytes so co-located tenants don't multiply backend load (0 = off; with -tiering it adds to -tiering-capacity: one budget)")
	tenantSpecs := fs.String("tenants", "", "pre-registered tenants as NAME[:WEIGHT[:BYTES_PER_SEC[:SECRET]]],...")
	sloSpecs := fs.String("slo", "", "per-tenant latency SLOs as TENANT:QUANTILE:THRESHOLD[:SHED_BUDGET[:WINDOW]],... e.g. trainer:0.99:20ms (tenants must appear in -tenants)")

	fs.BoolVar(&o.Tiering.Enable, "tiering", false, "enable the fast-tier backend stage (promote hot samples into a byte-budgeted tier)")
	fs.Int64Var(&o.Tiering.CapacityBytes, "tiering-capacity", 0, fmt.Sprintf("fast-tier byte budget (0 = default %dMiB)", tiering.DefaultCapacityBytes>>20))
	fs.BoolVar(&o.Tiering.Compress, "tiering-compress", false, "encode fast-tier residents (LZ, decoded in place on hits) when the submitted plans still being read do not fit the budget raw")
	fs.BoolVar(&o.Tiering.PrefetchNextEpoch, "tiering-prefetch-next", false, "warm next-epoch cold samples into free fast-tier space when a plan is submitted")

	fs.StringVar(&o.Cluster.NodeID, "node-id", "", "this node's name in the cluster placement ring (enables the multi-node prefetch fabric with -peers)")
	peerList := fs.String("peers", "", "peer nodes as NAME=SOCKET,... e.g. node-1=/tmp/prisma-1.sock")
	for _, r := range subFlags {
		f := fs.Lookup(r.flag)
		f.Usage += " (requires -" + r.requires + ")"
	}

	if err := fs.Parse(args); err != nil {
		return s, err
	}
	if o.Dir == "" {
		return s, errNoDir
	}
	if err := checkSubFlags(fs); err != nil {
		return s, err
	}
	var err error
	if o.Tenancy.Tenants, err = parseTenantSpecs(*tenantSpecs); err != nil {
		return s, err
	}
	if err := parseSLOSpecs(*sloSpecs, o.Tenancy.Tenants); err != nil {
		return s, err
	}
	if o.Cluster.Peers, err = parsePeers(*peerList); err != nil {
		return s, err
	}
	o.Cluster.Enable = o.Cluster.NodeID != ""
	return s, nil
}

func main() {
	s, err := parseFlags(flag.CommandLine, os.Args[1:])
	if errors.Is(err, errNoDir) {
		fmt.Fprintln(os.Stderr, "prisma-server: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	p, err := prisma.Open(s.opts)
	if err != nil {
		log.Fatalf("prisma-server: %v", err)
	}

	// A stale socket from a previous run would block the listener.
	_ = os.Remove(s.socket)
	if err := p.ServeUnix(s.socket); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
	log.Printf("prisma-server: serving %d files (%.1f MiB) from %s on %s",
		p.Files(), float64(p.TotalBytes())/(1<<20), s.opts.Dir, s.socket)
	if s.opts.Cluster.Enable {
		log.Printf("prisma-server: cluster node %q in a %d-node ring (clairvoyant partitioning)",
			s.opts.Cluster.NodeID, len(s.opts.Cluster.Peers)+1)
	}

	if s.httpAddr != "" {
		go func() {
			log.Printf("prisma-server: admin API on %s", s.httpAddr)
			if err := http.ListenAndServe(s.httpAddr, p.AdminHandler()); err != nil {
				log.Printf("prisma-server: admin API: %v", err)
			}
		}()
	}

	if s.statsEvery > 0 {
		go func() {
			for range time.Tick(s.statsEvery) {
				st := p.Stats()
				log.Printf("stats: reads=%d hits=%d bypasses=%d errors=%d t=%d N=%d buffered=%d queue=%d",
					st.Reads, st.Hits, st.Bypasses, st.Errors, st.Producers, st.BufferCapacity, st.BufferLen, st.QueueLen)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("prisma-server: shutting down")
	_ = os.Remove(s.socket)
	// Close writes the I/O trace and span file: a run whose trace was lost
	// must not exit as if it had been written.
	if err := p.Close(); err != nil {
		log.Fatalf("prisma-server: %v", err)
	}
}
