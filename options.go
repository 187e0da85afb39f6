package prisma

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
	"github.com/dsrhaslab/prisma-go/internal/tiering"
)

// Options configures Open.
type Options struct {
	// Dir is the dataset root on the local filesystem (required). File
	// names in plans and Read calls are slash-separated paths relative to
	// this directory.
	Dir string

	// InitialProducers is the starting number of prefetching threads t
	// (default 1; the auto-tuner raises it as needed).
	InitialProducers int
	// MaxProducers bounds t (default 32).
	MaxProducers int
	// InitialBuffer is the starting in-memory buffer capacity N in
	// samples (default 16).
	InitialBuffer int
	// MaxBuffer bounds N (default 4096).
	MaxBuffer int
	// DisableAutoTune turns off the control plane's feedback loop over t
	// and N (on by default).
	DisableAutoTune bool
	// ControlInterval is the feedback loop's period (default 500ms).
	ControlInterval time.Duration

	// TraceFile, when set, records every read that reaches the device as
	// one span (stage "device-read": name, start, latency, size, error)
	// and writes the spans as JSON lines to this path on Close — input for
	// offline analysis (prisma-trace summary and timeline).
	TraceFile string

	// TraceSampling is the probability in [0, 1] that one sample's
	// lifecycle (FIFO pop, storage read, buffer park, consumer wait, IPC)
	// is traced end to end. 0 disables span tracing; the always-on wait
	// counters behind /attribution work regardless.
	TraceSampling float64
	// SpanFile, when set, writes the collected lifecycle spans as JSON
	// lines to this path on Close (prisma-trace attribute reads them).
	// Setting SpanFile without TraceSampling implies sampling 1.0.
	SpanFile string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the admin
	// handler. Off by default: profiling endpoints expose heap contents.
	EnablePprof bool

	// BufferPool configures the pooled, reference-counted sample buffers
	// that carry payloads from the storage read to the IPC frame without
	// per-hop allocation. Pooling is on by default; the zero value selects
	// the pool's defaults.
	BufferPool BufferPoolOptions

	// ConsumerDeadline bounds how long one Read blocks waiting for a
	// planned sample to arrive in the buffer (default 0 = wait forever,
	// the historical behaviour). On expiry the read fails with a deadline
	// error and its plan entry is returned to the epoch, so a retried read
	// of the same name can still claim it.
	ConsumerDeadline time.Duration

	// DisableResilience turns off the retrying/breaker storage wrapper
	// entirely (default on: transient backend faults are retried and a
	// failing backend sheds load through a circuit breaker).
	DisableResilience bool
	// ReadDeadline bounds one backend read attempt (default 0 = none). A
	// read is tried 3 times, 2ms apart and doubling, and 8 failed attempts
	// in a row open the breaker for 250ms.
	ReadDeadline time.Duration

	// Tenancy configures multi-tenant admission control: per-tenant rate
	// and byte budgets, overload shedding, and the shared read cache. Off
	// by default (single-tenant instances pay nothing).
	Tenancy TenancyOptions

	// Tiering configures the fast-tier stage on the serving path: a
	// byte-bounded local tier in front of the (slow) dataset backend, with
	// optional transparent compression and next-epoch warming. Off by
	// default.
	Tiering TieringOptions

	// Cluster configures the multi-node prefetch fabric: N prisma-server
	// instances front the same (slow, typically parallel-filesystem-backed)
	// dataset, samples are owned by consistent-hash placement, and a read
	// of a non-owned sample is forwarded to the owner's buffer over IPC
	// instead of duplicating the slow-store read. Off by default.
	Cluster ClusterOptions
}

// ClusterOptions wires one instance into a multi-node prefetch fabric
// (internal/distrib). With clairvoyant placement each node prefetches
// exactly the subsequence of the epoch plan it owns, so an N-node cluster
// reads every sample from the slow store once per epoch instead of N
// times; cross-node accesses become peer-buffer hits. A peer that cannot
// be reached fails over to the slow store, so a node outage degrades
// throughput, never correctness. Every node places samples on the same
// consistent-hash ring, 64 virtual nodes per member.
type ClusterOptions struct {
	// Enable turns the fabric on. NodeID is then required.
	Enable bool
	// NodeID is this node's name in the placement ring (required; must be
	// unique across the cluster and listed in every peer's Peers map).
	NodeID string
	// Peers maps the other nodes' names to their UNIX socket paths (the
	// sockets their prisma-server instances ServeUnix on). Peer
	// connections are dialed lazily on first forward and redialed after
	// transport failures; an unreachable peer degrades to slow-store
	// failover.
	Peers map[string]string
}

// TieringOptions tunes the memory hierarchy on the serving path
// (internal/tiering; the shared cache of TenancyOptions.SharedCacheBytes is
// the same layer). When enabled, the hierarchy takes its row of the storage
// chain's table (internal/chain, where the order and its reasons are
// written once): samples are promoted into a capacity-bounded fast tier on
// first access and served from it on re-access, and concurrent misses of
// one sample cost one backend read. A full tier admits
// a sample only over residents it is strictly hotter than, so the
// once-per-epoch scan of a dataset larger than the tier — every sample
// equally hot — keeps a stable resident set and hits the tier's capacity
// fraction, while a skewed workload's hot samples still displace cold
// ones. Stats.TierDeclined counts the refusals. Past 64Ki tracked names
// every access count, residents' included, decays (halve, drop zeroes), so
// cold names cannot grow memory without bound.
type TieringOptions struct {
	// Enable turns the tiering stage on.
	Enable bool
	// CapacityBytes is the fast tier's byte budget (default 256 MiB); with
	// TenancyOptions.SharedCacheBytes also set the hierarchy's one budget
	// is their sum, the shared cache's part keeping raw what the tier's
	// declines. A compressed resident charges only its compressed size, so
	// compression stretches the same budget over more samples.
	CapacityBytes int64
	// Compress lets the tier encode: it stores promoted payloads
	// LZ-compressed (when that is smaller, decoding in place into pooled
	// buffers on hits) when the submitted plans still being read do not
	// fit the budget raw, or before any plan is submitted. While they fit,
	// residents stay raw and hits decode nothing.
	Compress bool
	// PrefetchNextEpoch warms each submitted epoch plan's cold samples
	// into free fast-tier space in the background, so an epoch starts
	// against a warmed tier instead of a cold one.
	PrefetchNextEpoch bool
}

// SLOOptions declares one tenant's latency service-level objective: "the
// Quantile of this tenant's reads completes within Threshold". The SLO
// plane tracks the objective's error-budget burn rate over a short and a
// long sliding window (the SRE multi-window method), flips the tenant
// OK -> WARN -> BREACH, and on breach boosts the tenant's arbitration
// weight until the budget recovers — every action landing in the decision
// audit log.
type SLOOptions struct {
	// Quantile is the objective's target quantile in (0, 1); reads slower
	// than Threshold beyond the 1-Quantile allowance burn the error
	// budget (default 0.99).
	Quantile float64
	// Threshold is the latency objective (required, > 0).
	Threshold time.Duration
	// ShedBudget is an extra error-budget fraction granted for admission
	// sheds, so deliberate load shedding does not instantly breach a
	// tight latency objective (default 0).
	ShedBudget float64
	// Window is the long sliding window the budget is evaluated over
	// (default 60s). The short (fast-burn) window is Window/12. A short-
	// window burn rate of 1 (burning exactly the budget) flips the tenant
	// to WARN; a short-window burn of 4 while the long window burns at 1
	// or more flips it to BREACH.
	Window time.Duration
}

// TenantSpec declares one tenant for TenancyOptions.Tenants or
// Prisma.RegisterTenant.
type TenantSpec struct {
	// Name identifies the tenant (required, unique). Clients assume it
	// with DialOptions.Tenant.
	Name string
	// Weight is the tenant's share weight for weighted max-min
	// arbitration (default 1).
	Weight float64
	// BytesPerSecond is the tenant's byte budget; 0 means unmetered.
	BytesPerSecond float64
	// Secret, when non-empty, must be presented at hello time for a
	// connection to assume this identity.
	Secret string
	// SLO, when set, attaches a latency objective to this tenant.
	SLO *SLOOptions
}

// TenancyOptions tunes the tenant-aware robustness layer: admission
// control, per-tenant QoS, and graceful degradation on the serving path.
// A tenant may briefly exceed its granted rate by Capacity/4 reads. While
// the storage backend is degraded (circuit breaker open) the distributed
// capacity halves, shrinking every grant proportionally. While a tenant's
// SLO is breached its arbitration weight doubles, shifting share from its
// noisy neighbors to the victim until the error budget recovers. A shed
// client's retry-after hint is at most 5s.
type TenancyOptions struct {
	// Enable turns the tenancy layer on. Every read is then attributed to
	// a tenant (connections that never send a hello land on "default"),
	// throttled to its arbiter-granted share, and — past the saturation
	// thresholds below — shed with a typed, retryable ErrOverloaded
	// instead of queueing without bound.
	Enable bool
	// Capacity is the total read rate (reads/s) distributed across
	// tenants by weighted max-min fairness (default 10000).
	Capacity float64
	// TickInterval is the arbitration/overload evaluation period
	// (default 100ms).
	TickInterval time.Duration
	// MaxQueueDepth is the saturation threshold on the prefetch queue
	// depth past which over-budget tenants are shed (default 4096;
	// -1 disables the check).
	MaxQueueDepth int
	// SharedCacheBytes, when positive, inserts a byte-bounded
	// single-flight LRU cache above the storage backend so co-located
	// tenants reading the same files don't multiply backend load:
	// concurrent reads of one file cost one backend read, and every file
	// read stays resident until it is the least recently used, so a tenant
	// trailing another finds what the other just read. The budget bounds
	// what the residents pin: a pooled resident counts the size class of
	// its buffer, not just its length. The cache is the memory hierarchy of
	// Options.Tiering (its recency window, raw); with the tier also on, the
	// one hierarchy's budget is both, and the cache's part keeps what the
	// tier's admission rule declines.
	SharedCacheBytes int64
	// Tenants pre-registers tenants at Open (more can be added at
	// runtime via RegisterTenant or self-service hello).
	Tenants []TenantSpec
}

// BufferPoolOptions tunes the sample buffer pool (internal/mempool). Its
// size classes run from 4 KiB to 4 MiB (larger samples fall back to plain
// allocation), and each class keeps 8 MiB of free buffers, never fewer
// than 64 of them.
type BufferPoolOptions struct {
	// Disable turns pooling off for A/B comparison: every hop allocates
	// fresh slices, as before the pool existed. Delivered bytes are
	// bit-for-bit identical either way (proven by the aliasing tests).
	Disable bool
}

// withDefaults fills zero values; t and N default to the stage's own.
func (o Options) withDefaults() Options {
	stage := core.DefaultStageConfig()
	if o.InitialProducers == 0 {
		o.InitialProducers = stage.InitialProducers
	}
	if o.MaxProducers == 0 {
		o.MaxProducers = stage.MaxProducers
	}
	if o.InitialBuffer == 0 {
		o.InitialBuffer = stage.InitialBufferCapacity
	}
	if o.MaxBuffer == 0 {
		o.MaxBuffer = stage.MaxBufferCapacity
	}
	if o.ControlInterval == 0 {
		o.ControlInterval = control.DefaultControlInterval
	}
	if o.SpanFile != "" && o.TraceSampling == 0 {
		o.TraceSampling = 1
	}
	if o.Tenancy.Enable {
		if o.Tenancy.Capacity == 0 {
			o.Tenancy.Capacity = tenancy.DefaultCapacity
		}
		if o.Tenancy.MaxQueueDepth == 0 {
			o.Tenancy.MaxQueueDepth = tenancy.DefaultMaxQueueDepth
		}
	}
	if o.Tiering.Enable {
		if o.Tiering.CapacityBytes == 0 {
			o.Tiering.CapacityBytes = tiering.DefaultCapacityBytes
		}
	}
	return o
}

// validateCluster rejects an inconsistent fabric declaration.
func (c ClusterOptions) validate() error {
	if !c.Enable {
		return nil
	}
	if c.NodeID == "" {
		return fmt.Errorf("prisma: Cluster.NodeID is required when Cluster.Enable is set")
	}
	for name, sock := range c.Peers {
		if name == "" {
			return fmt.Errorf("prisma: Cluster.Peers entry with empty node name")
		}
		if name == c.NodeID {
			return fmt.Errorf("prisma: Cluster.Peers lists this node %q as its own peer", name)
		}
		if sock == "" {
			return fmt.Errorf("prisma: Cluster.Peers[%q] has an empty socket path", name)
		}
	}
	return nil
}

// validate rejects an inconsistent SLO declaration (nil passes: no SLO).
func (s *SLOOptions) validate(tenant string) error {
	if s == nil {
		return nil
	}
	if s.Threshold <= 0 {
		return fmt.Errorf("prisma: tenant %q SLO: Threshold %v <= 0", tenant, s.Threshold)
	}
	if s.Quantile < 0 || s.Quantile >= 1 {
		return fmt.Errorf("prisma: tenant %q SLO: Quantile %v outside [0, 1)", tenant, s.Quantile)
	}
	if s.ShedBudget < 0 || s.ShedBudget > 1 {
		return fmt.Errorf("prisma: tenant %q SLO: ShedBudget %v outside [0, 1]", tenant, s.ShedBudget)
	}
	if s.Window < 0 {
		return fmt.Errorf("prisma: tenant %q SLO: negative Window", tenant)
	}
	return nil
}

// validate rejects inconsistent options.
func (o Options) validate() error {
	if o.Dir == "" {
		return fmt.Errorf("prisma: Options.Dir is required")
	}
	if o.InitialProducers < 1 || o.MaxProducers < o.InitialProducers {
		return fmt.Errorf("prisma: bad producer bounds [%d, %d]", o.InitialProducers, o.MaxProducers)
	}
	if o.InitialBuffer < 1 || o.MaxBuffer < o.InitialBuffer {
		return fmt.Errorf("prisma: bad buffer bounds [%d, %d]", o.InitialBuffer, o.MaxBuffer)
	}
	if o.ControlInterval <= 0 {
		return fmt.Errorf("prisma: non-positive control interval")
	}
	if o.ReadDeadline < 0 {
		return fmt.Errorf("prisma: negative ReadDeadline")
	}
	if o.ConsumerDeadline < 0 {
		return fmt.Errorf("prisma: negative ConsumerDeadline")
	}
	if o.TraceSampling < 0 || o.TraceSampling > 1 {
		return fmt.Errorf("prisma: TraceSampling %v outside [0, 1]", o.TraceSampling)
	}
	if o.Tenancy.Enable {
		if o.Tenancy.Capacity <= 0 {
			return fmt.Errorf("prisma: Tenancy.Capacity %v <= 0", o.Tenancy.Capacity)
		}
		if o.Tenancy.SharedCacheBytes < 0 {
			return fmt.Errorf("prisma: negative Tenancy.SharedCacheBytes")
		}
		if o.Tenancy.MaxQueueDepth < -1 {
			return fmt.Errorf("prisma: Tenancy.MaxQueueDepth %d < -1", o.Tenancy.MaxQueueDepth)
		}
		if o.Tenancy.TickInterval < 0 {
			return fmt.Errorf("prisma: negative Tenancy.TickInterval")
		}
		for _, ts := range o.Tenancy.Tenants {
			if ts.Name == "" {
				return fmt.Errorf("prisma: Tenancy.Tenants entry with empty name")
			}
			if err := ts.SLO.validate(ts.Name); err != nil {
				return err
			}
		}
	}
	if err := o.Cluster.validate(); err != nil {
		return err
	}
	if o.Tiering.Enable {
		if o.Tiering.CapacityBytes < 1 {
			return fmt.Errorf("prisma: Tiering.CapacityBytes %d < 1", o.Tiering.CapacityBytes)
		}
	}
	return nil
}
