package prisma

import (
	"fmt"
	"time"
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
	// AutoTune enables the control plane's feedback loop over t and N
	// (default true — set DisableAutoTune to turn it off).
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
	// ReadRetries is the total number of attempts per backend read,
	// including the first (default 3; 1 = no retry).
	ReadRetries int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// further attempt with deterministic jitter (default 2ms).
	RetryBackoff time.Duration
	// ReadDeadline bounds one backend read attempt (default 0 = none).
	ReadDeadline time.Duration
	// BreakerThreshold is the number of consecutive failed attempts that
	// opens the circuit breaker (default 8; -1 disables the breaker while
	// keeping retries).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// probing the backend again (default 250ms).
	BreakerCooldown time.Duration

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
// throughput, never correctness.
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
	// VirtualNodes is the consistent-hash vnode count per node (default
	// 64). All nodes must agree on it.
	VirtualNodes int
	// DisablePartitioner keeps each node prefetching full epoch plans
	// instead of only its ring-owned subsequence — the paper's
	// "independent" arrangement, useful for measuring what clairvoyant
	// placement saves. Reads still route by ownership.
	DisablePartitioner bool
}

// TieringOptions tunes the memory hierarchy on the serving path
// (internal/tiering; the shared cache of TenancyOptions.SharedCacheBytes is
// the same layer). When enabled, the hierarchy takes its row of the storage
// chain's table (internal/chain, where the order and its reasons are
// written once): samples are promoted into a capacity-bounded fast tier and
// served from it on re-access, and concurrent misses of one sample cost one
// backend read. A full tier admits
// a sample only over residents it is strictly hotter than, so the
// once-per-epoch scan of a dataset larger than the tier — every sample
// equally hot — keeps a stable resident set and hits the tier's capacity
// fraction, while a skewed workload's hot samples still displace cold
// ones. Stats.TierDeclined counts the refusals.
type TieringOptions struct {
	// Enable turns the tiering stage on.
	Enable bool
	// CapacityBytes is the fast tier's byte budget (default 256 MiB); with
	// TenancyOptions.SharedCacheBytes also set the hierarchy's one budget
	// is their sum, the shared cache's part keeping raw what the tier's
	// declines. A compressed resident charges only its compressed size, so
	// compression stretches the same budget over more samples.
	CapacityBytes int64
	// PromoteAfter is the access count at which a sample becomes a
	// candidate for the fast tier (default 1 = on first access): it
	// enters free space at once, a full tier only over strictly colder
	// residents.
	PromoteAfter int
	// MaxTrackedNames caps the map of non-resident samples' access
	// counts; past it every count, residents' included, decays (halve,
	// drop zeroes) so cold names cannot grow memory without bound and
	// residents that stop being read lose their standing. Default 0
	// selects the package default (64Ki).
	MaxTrackedNames int
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
	// (default 60s). The short (fast-burn) window is Window/12.
	Window time.Duration
	// WarnBurn is the long-window burn rate that flips the tenant to
	// WARN (default 1 = burning exactly the budget).
	WarnBurn float64
	// BreachBurn is the short-window burn rate that, together with
	// WarnBurn sustained on the long window, flips the tenant to BREACH
	// (default 4 x WarnBurn).
	BreachBurn float64
}

// TenantSpec declares one tenant for TenancyOptions.Tenants or
// Prisma.RegisterTenant.
type TenantSpec struct {
	// Name identifies the tenant (required, unique). Clients assume it
	// with Client.Hello.
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
	// Burst bounds how far a tenant may briefly exceed its granted rate
	// (default Capacity/4).
	Burst float64
	// TickInterval is the arbitration/overload evaluation period
	// (default 100ms).
	TickInterval time.Duration
	// DegradedFactor scales Capacity while the storage backend is
	// degraded (circuit breaker open), shrinking every tenant's grant
	// proportionally (default 0.5).
	DegradedFactor float64
	// MaxQueueDepth is the saturation threshold on the prefetch queue
	// depth past which over-budget tenants are shed (default 4096;
	// -1 disables the check).
	MaxQueueDepth int
	// MaxPooledBytes is the saturation threshold on the estimated
	// outstanding pooled-buffer footprint (default 0 = disabled).
	MaxPooledBytes int64
	// MaxRetryAfter clamps the retry-after hint handed to shed clients
	// (default 5s).
	MaxRetryAfter time.Duration
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
	// SLOBoostFactor scales a tenant's arbitration weight while its SLO
	// is breached, shifting share from its noisy neighbors to the victim
	// until the error budget recovers (default 2; must be > 1).
	SLOBoostFactor float64
	// Tenants pre-registers tenants at Open (more can be added at
	// runtime via RegisterTenant or self-service hello).
	Tenants []TenantSpec
}

// BufferPoolOptions tunes the sample buffer pool (internal/mempool).
type BufferPoolOptions struct {
	// Disable turns pooling off for A/B comparison: every hop allocates
	// fresh slices, as before the pool existed. Delivered bytes are
	// bit-for-bit identical either way (proven by the aliasing tests).
	Disable bool
	// MinSize is the smallest size class in bytes (default 4 KiB).
	MinSize int
	// MaxSize is the largest size class in bytes (default 4 MiB); larger
	// samples fall back to plain allocation.
	MaxSize int
	// PerClassCap bounds the free buffers retained per size class; the
	// pool's worst-case idle footprint is then roughly the sum over
	// classes of PerClassCap x class size. Zero (the default) bounds each
	// class by bytes instead: 8 MiB of free buffers, and never fewer than
	// 64 of them — enough for the small classes to stop missing, no more
	// than 64 of any class from 128 KiB up.
	PerClassCap int
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.InitialProducers == 0 {
		o.InitialProducers = 1
	}
	if o.MaxProducers == 0 {
		o.MaxProducers = 32
	}
	if o.InitialBuffer == 0 {
		o.InitialBuffer = 16
	}
	if o.MaxBuffer == 0 {
		o.MaxBuffer = 4096
	}
	if o.ControlInterval == 0 {
		o.ControlInterval = 500 * time.Millisecond
	}
	if o.ReadRetries == 0 {
		o.ReadRetries = 3
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	if o.SpanFile != "" && o.TraceSampling == 0 {
		o.TraceSampling = 1
	}
	if o.Tenancy.Enable {
		if o.Tenancy.Capacity == 0 {
			o.Tenancy.Capacity = 10_000
		}
		if o.Tenancy.MaxQueueDepth == 0 {
			o.Tenancy.MaxQueueDepth = 4096
		}
	}
	if o.Tiering.Enable {
		if o.Tiering.CapacityBytes == 0 {
			o.Tiering.CapacityBytes = 256 << 20
		}
		if o.Tiering.PromoteAfter == 0 {
			o.Tiering.PromoteAfter = 1
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
	if c.VirtualNodes < 0 {
		return fmt.Errorf("prisma: Cluster.VirtualNodes %d < 0", c.VirtualNodes)
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
	if s.Window < 0 || s.WarnBurn < 0 || s.BreachBurn < 0 {
		return fmt.Errorf("prisma: tenant %q SLO: negative Window or burn threshold", tenant)
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
	if o.ReadRetries < 1 {
		return fmt.Errorf("prisma: ReadRetries %d < 1", o.ReadRetries)
	}
	if o.RetryBackoff < 0 || o.ReadDeadline < 0 {
		return fmt.Errorf("prisma: negative retry backoff or read deadline")
	}
	if o.BreakerThreshold < -1 {
		return fmt.Errorf("prisma: BreakerThreshold %d < -1", o.BreakerThreshold)
	}
	if o.BreakerCooldown < 0 {
		return fmt.Errorf("prisma: negative breaker cooldown")
	}
	if o.ConsumerDeadline < 0 {
		return fmt.Errorf("prisma: negative ConsumerDeadline")
	}
	if o.TraceSampling < 0 || o.TraceSampling > 1 {
		return fmt.Errorf("prisma: TraceSampling %v outside [0, 1]", o.TraceSampling)
	}
	if o.BufferPool.MinSize < 0 || o.BufferPool.MaxSize < 0 || o.BufferPool.PerClassCap < 0 {
		return fmt.Errorf("prisma: negative BufferPool sizing")
	}
	if o.BufferPool.MaxSize > 0 && o.BufferPool.MinSize > o.BufferPool.MaxSize {
		return fmt.Errorf("prisma: BufferPool.MinSize %d > MaxSize %d", o.BufferPool.MinSize, o.BufferPool.MaxSize)
	}
	if o.Tenancy.Enable {
		if o.Tenancy.Capacity <= 0 {
			return fmt.Errorf("prisma: Tenancy.Capacity %v <= 0", o.Tenancy.Capacity)
		}
		if o.Tenancy.Burst < 0 || o.Tenancy.MaxPooledBytes < 0 || o.Tenancy.SharedCacheBytes < 0 {
			return fmt.Errorf("prisma: negative Tenancy sizing")
		}
		if o.Tenancy.MaxQueueDepth < -1 {
			return fmt.Errorf("prisma: Tenancy.MaxQueueDepth %d < -1", o.Tenancy.MaxQueueDepth)
		}
		if o.Tenancy.TickInterval < 0 || o.Tenancy.MaxRetryAfter < 0 {
			return fmt.Errorf("prisma: negative Tenancy interval")
		}
		if o.Tenancy.DegradedFactor < 0 || o.Tenancy.DegradedFactor > 1 {
			return fmt.Errorf("prisma: Tenancy.DegradedFactor %v outside [0, 1]", o.Tenancy.DegradedFactor)
		}
		if o.Tenancy.SLOBoostFactor != 0 && o.Tenancy.SLOBoostFactor <= 1 {
			return fmt.Errorf("prisma: Tenancy.SLOBoostFactor %v <= 1", o.Tenancy.SLOBoostFactor)
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
		if o.Tiering.PromoteAfter < 1 {
			return fmt.Errorf("prisma: Tiering.PromoteAfter %d < 1", o.Tiering.PromoteAfter)
		}
		if o.Tiering.MaxTrackedNames < 0 {
			return fmt.Errorf("prisma: Tiering.MaxTrackedNames %d < 0", o.Tiering.MaxTrackedNames)
		}
	}
	return nil
}
