// Package httpadmin exposes a PRISMA stage's control interface over HTTP
// for dashboards and scrapers: JSON statistics, Prometheus-style text
// metrics, liveness, latency attribution, the autotuner decision log, and
// knob updates. It is the observability face of the control plane for real
// deployments (prisma-server -http).
package httpadmin

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Config selects the handler's optional surfaces.
type Config struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and must be
	// opted into.
	EnablePprof bool
	// Decisions, when set, backs GET /decisions with the autotuner's
	// audit log (typically Controller.Decisions for the managed stage).
	Decisions func() []control.DecisionRecord
	// Consumers is the default attribution denominator for /attribution
	// (overridable per request with ?consumers=N). Zero means one.
	Consumers int
	// Tenants, when set, backs GET /tenants and the prisma_tenant_*
	// Prometheus metrics with the tenancy manager's QoS snapshot.
	Tenants func() tenancy.Snapshot
	// Control, when set, backs POST /tuning?KEY=VALUE&… with the stage's
	// control table (control.Table.Apply in practice).
	Control func(settings ...string) error
	// Tracer, when set, lets GET /debug/bundle include the retained spans
	// so one capture carries both counters and recent per-read timelines.
	Tracer *obs.Tracer
	// Cluster, when set, backs GET /cluster and the prisma_cluster_*
	// Prometheus metrics with the multi-node fabric's traffic snapshot.
	Cluster func() distrib.ClusterStats
}

// DefaultBundleSpans bounds the spans embedded in a diagnostic bundle when
// the caller does not ask for a specific number (?spans=N).
const DefaultBundleSpans = 1024

// Bundle is the one-shot diagnostic capture served by GET /debug/bundle
// and OpGet over IPC: every observability surface of one stage —
// stats (including cache, tiering, pool, and plan counters), latency
// attribution, per-tenant QoS and SLO states, plan epochs, the decision
// audit log, and the most recent spans — in a single JSON document.
type Bundle struct {
	CapturedAt  time.Duration            `json:"captured_at"`
	Stats       core.StageStats          `json:"stats"`
	Attribution obs.Attribution          `json:"attribution"`
	Tenants     *tenancy.Snapshot        `json:"tenants,omitempty"`
	Epochs      []core.EpochStatus       `json:"epochs,omitempty"`
	Decisions   []control.DecisionRecord `json:"decisions,omitempty"`
	Cluster     *distrib.ClusterStats    `json:"cluster,omitempty"`
	Spans       []obs.Span               `json:"spans,omitempty"`
	// SpansDropped counts retained spans omitted by the span limit.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// BuildBundle assembles the diagnostic bundle for dp using cfg's optional
// sources. spanLimit bounds the embedded spans (most recent kept; 0 omits
// them, < 0 means DefaultBundleSpans). Shared by the HTTP handler and the
// IPC OpGet source so both transports serve the identical document.
func BuildBundle(dp control.DataPlane, cfg Config, spanLimit int) Bundle {
	if spanLimit < 0 {
		spanLimit = DefaultBundleSpans
	}
	s := dp.Stats()
	b := Bundle{
		CapturedAt:  s.Now,
		Stats:       s,
		Attribution: s.Attribution(core.StageStats{}, cfg.Consumers), // clamped to >= 1
	}
	if cfg.Tenants != nil {
		snap := cfg.Tenants()
		b.Tenants = &snap
	}
	if em, ok := dp.(epochManager); ok {
		b.Epochs = em.Epochs()
	}
	if cfg.Decisions != nil {
		b.Decisions = cfg.Decisions()
	}
	if cfg.Cluster != nil {
		cs := cfg.Cluster()
		b.Cluster = &cs
	}
	if cfg.Tracer != nil && spanLimit > 0 {
		spans := cfg.Tracer.Spans()
		if over := len(spans) - spanLimit; over > 0 {
			b.SpansDropped = over
			spans = spans[over:] // Spans() is time-ordered; keep the newest.
		}
		b.Spans = spans
	}
	return b
}

// Handler serves the admin API for one data-plane stage.
type Handler struct {
	dp  control.DataPlane
	cfg Config
	mux *http.ServeMux
}

// New builds the admin handler over any control.DataPlane (a *core.Stage
// in practice) with the default Config.
func New(dp control.DataPlane) *Handler { return NewWithConfig(dp, Config{}) }

// NewWithConfig builds the admin handler with explicit options.
func NewWithConfig(dp control.DataPlane, cfg Config) *Handler {
	h := &Handler{dp: dp, cfg: cfg, mux: http.NewServeMux()}
	h.mux.HandleFunc("/healthz", h.healthz)
	h.mux.HandleFunc("/stats", only(http.MethodGet, h.stats))
	h.mux.HandleFunc("/metrics", only(http.MethodGet, h.metrics))
	h.mux.HandleFunc("/tuning", only(http.MethodPost, h.tuning))
	h.mux.HandleFunc("/attribution", only(http.MethodGet, h.attribution))
	h.mux.HandleFunc("/decisions", only(http.MethodGet, h.decisions))
	h.mux.HandleFunc("/epochs", h.epochs)
	h.mux.HandleFunc("/tenants", only(http.MethodGet, h.tenants))
	h.mux.HandleFunc("/tiering", only(http.MethodGet, h.tiering))
	h.mux.HandleFunc("/cluster", only(http.MethodGet, h.cluster))
	h.mux.HandleFunc("/debug/bundle", only(http.MethodGet, h.bundle))
	if cfg.EnablePprof {
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// only admits requests with the given method to f, answering the rest 405.
func only(method string, f http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, method+" only", http.StatusMethodNotAllowed)
			return
		}
		f(w, r)
	}
}

// writeJSON answers with v as JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// stats returns the full StageStats snapshot as JSON.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.dp.Stats())
}

// writeHistogram renders one duration histogram in Prometheus histogram
// exposition format (seconds, cumulative buckets, implicit +Inf).
func writeHistogram(w http.ResponseWriter, name, help string, snap metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, b := range snap.Buckets {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b.Le.Seconds(), 'g', -1, 64), b.Count)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, snap.Sum.Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}

// metrics renders Prometheus text exposition format.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	s := h.dp.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	write := func(name, help, typ string, value float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, value)
	}
	write("prisma_reads_total", "Intercepted read requests.", "counter", float64(s.Reads))
	write("prisma_buffer_hits_total", "Reads served from the prefetch buffer.", "counter", float64(s.Hits))
	write("prisma_bypasses_total", "Reads passed through to backend storage.", "counter", float64(s.Bypasses))
	write("prisma_errors_total", "Failed reads.", "counter", float64(s.Errors))
	write("prisma_prefetched_files_total", "Files fetched ahead by producers.", "counter", float64(s.PrefetchedFiles))
	write("prisma_read_errors_total", "Producer-side read failures.", "counter", float64(s.ReadErrors))
	write("prisma_queue_length", "Filenames awaiting prefetch.", "gauge", float64(s.QueueLen))
	write("prisma_producers", "Target producer thread count t.", "gauge", float64(s.TargetProducers))
	write("prisma_buffer_length", "Samples currently buffered.", "gauge", float64(s.Buffer.Len))
	write("prisma_buffer_capacity", "Buffer capacity N.", "gauge", float64(s.Buffer.Capacity))
	write("prisma_buffer_shards", "Buffer shard count K.", "gauge", float64(s.Buffer.Shards))
	write("prisma_consumer_wait_seconds_total", "Cumulative consumer blocking time.", "counter", s.Buffer.ConsumerWait.Seconds())
	write("prisma_producer_wait_seconds_total", "Cumulative producer blocking time.", "counter", s.Buffer.ProducerWait.Seconds())
	write("prisma_consumer_wait_storage_seconds_total", "Consumer blocking time attributed to storage reads.", "counter", s.Buffer.ConsumerWaitStorage.Seconds())
	write("prisma_consumer_wait_bufferfull_seconds_total", "Consumer blocking time attributed to buffer capacity.", "counter", s.Buffer.ConsumerWaitBufferFull.Seconds())
	write("prisma_storage_busy_seconds_total", "Cumulative producer time inside backend reads.", "counter", s.StorageBusy.Seconds())
	write("prisma_trace_sampling", "Trace head-sampling probability.", "gauge", s.TraceSampling)
	write("prisma_plan_epochs_submitted_total", "Plan epochs submitted.", "counter", float64(s.Plan.EpochsSubmitted))
	write("prisma_plan_epochs_cancelled_total", "Plan epochs cancelled.", "counter", float64(s.Plan.EpochsCancelled))
	write("prisma_plan_epochs_live", "Epochs currently active.", "gauge", float64(s.Plan.EpochsLive))
	write("prisma_plan_entries_pending", "Registered plan entries not yet claimed by a consumer.", "gauge", float64(s.Plan.EntriesPending))
	write("prisma_plan_claims_in_flight", "Consumer claims awaiting a buffered sample.", "gauge", float64(s.Plan.ClaimsInFlight))
	write("prisma_plan_delivered_total", "Plan entries delivered to consumers.", "counter", float64(s.Plan.Delivered))
	write("prisma_plan_dropped_total", "Plan entries dropped by cancellation.", "counter", float64(s.Plan.Dropped))
	write("prisma_readahead_samples_total", "Samples sent to a socket client behind the reply it asked for.", "counter", float64(s.ReadAheadSamples))
	write("prisma_readahead_wasted_total", "Pushed samples socket clients reported dropping unread.", "counter", float64(s.ReadAheadWasted))
	write("prisma_read_payloads_arena_total", "Socket read payloads the client read where the producer put them, in the server's shared arena.", "counter", float64(s.ArenaPayloads))
	write("prisma_read_payloads_inline_total", "Socket read payloads that rode the socket inline.", "counter", float64(s.InlinePayloads))
	write("prisma_backend_retries_total", "Backend read attempts beyond the first.", "counter", float64(s.Resilience.Retries))
	write("prisma_backend_exhausted_total", "Backend reads that failed after all retry attempts.", "counter", float64(s.Resilience.Exhausted))
	write("prisma_breaker_opens_total", "Circuit breaker trips to the open state.", "counter", float64(s.Resilience.BreakerOpens))
	write("prisma_breaker_fast_fails_total", "Reads rejected without touching the backend while the breaker was open.", "counter", float64(s.Resilience.FastFails))
	degraded := 0.0
	if s.Resilience.Degraded {
		degraded = 1
	}
	write("prisma_backend_degraded", "1 while the circuit breaker is open or half-open.", "gauge", degraded)
	poolEnabled := 0.0
	if s.PoolEnabled {
		poolEnabled = 1
	}
	write("prisma_pool_enabled", "1 when the sample buffer pool is attached.", "gauge", poolEnabled)
	if s.PoolEnabled {
		write("prisma_pool_gets_total", "Buffer leases handed out by the pool.", "counter", float64(s.Pool.Gets))
		write("prisma_pool_hits_total", "Leases served from a recycled buffer.", "counter", float64(s.Pool.Hits))
		write("prisma_pool_misses_total", "Leases that had to allocate a fresh buffer.", "counter", float64(s.Pool.Misses))
		write("prisma_pool_oversize_total", "Leases above the largest size class (unpooled).", "counter", float64(s.Pool.Oversize))
		write("prisma_pool_recycled_total", "Buffers returned to a free list on release.", "counter", float64(s.Pool.Recycled))
		write("prisma_pool_discarded_total", "Buffers dropped on release because their class was full.", "counter", float64(s.Pool.Discarded))
		write("prisma_pool_hit_rate", "Fraction of leases served from recycled buffers.", "gauge", s.Pool.HitRate)
		write("prisma_pool_outstanding_refs", "Buffer leases currently held somewhere in the pipeline.", "gauge", float64(s.Pool.Outstanding))
		write("prisma_pool_free_buffers", "Idle buffers parked on the pool's free lists.", "gauge", float64(s.Pool.FreeBuffers))
		write("prisma_pool_free_bytes", "Bytes held idle by the pool's free lists.", "gauge", float64(s.Pool.FreeBytes))
		write("prisma_pool_arena_bytes", "Size of the shared arena the pool carves buffers from (0 without one).", "gauge", float64(s.Pool.ArenaCapacity))
		write("prisma_pool_arena_carved_bytes", "Bytes of the shared arena carved into pool buffers.", "gauge", float64(s.Pool.ArenaCarved))
	}
	tierEnabled := 0.0
	if s.TierEnabled() {
		tierEnabled = 1
	}
	write("prisma_tiering_enabled", "1 when the memory hierarchy has a fast tier (Tiering.Enable).", "gauge", tierEnabled)
	if s.TieringEnabled {
		// The whole hierarchy snapshot, whichever of its two budgets (the
		// tier's, the shared cache's window) it was given.
		t := s.Tiering
		write("prisma_tiering_fast_hits_total", "Reads served from the fast tier.", "counter", float64(t.FastHits))
		write("prisma_tiering_slow_reads_total", "Demand misses served by the slow tier.", "counter", float64(t.SlowReads))
		write("prisma_tiering_promotions_total", "Samples copied into the fast tier on the demand path.", "counter", float64(t.Promotions))
		write("prisma_tiering_evictions_total", "Fast-tier residents evicted to make room.", "counter", float64(t.Evictions))
		write("prisma_tiering_declined_total", "Admissions refused because no LRU victim was strictly colder than the candidate.", "counter", float64(t.Declined))
		write("prisma_tiering_prefetch_promotions_total", "Samples warmed in by next-epoch plan prefetch.", "counter", float64(t.PrefetchPromotions))
		write("prisma_tiering_prefetch_skips_total", "Warm-plan entries declined (resident, full tier, or error).", "counter", float64(t.PrefetchSkips))
		write("prisma_tiering_used_bytes", "Physical fast-tier occupancy (compressed where applicable).", "gauge", float64(t.FastUsed))
		write("prisma_tiering_logical_bytes", "Decoded sample volume the fast tier holds.", "gauge", float64(t.FastLogical))
		write("prisma_tiering_capacity_bytes", "The hierarchy's whole byte budget (the tier's plus the shared cache's).", "gauge", float64(t.Capacity))
		write("prisma_tiering_residents", "Samples resident on the fast tier.", "gauge", float64(t.Residents))
		write("prisma_tiering_encoded_residents", "Residents stored LZ-encoded (the submitted plan did not fit the budget raw, or none was submitted).", "gauge", float64(t.Encoded))
		write("prisma_tiering_tracked_names", "Names in the promotion-counter map.", "gauge", float64(t.TrackedNames))
		write("prisma_tiering_access_decays_total", "Promotion-counter decay sweeps.", "counter", float64(t.AccessDecays))
		write("prisma_tiering_window_bytes", "The recency window's part of the byte budget (the shared cache's).", "gauge", float64(t.Window))
		write("prisma_tiering_joined_reads_total", "Reads that joined another reader's in-flight slow read of the same sample.", "counter", float64(t.Waits))
		write("prisma_tiering_joined_wait_seconds_total", "Cumulative time joined reads spent waiting on that slow read.", "counter", t.WaitTime.Seconds())
		write("prisma_tiering_promote_seconds_total", "Cumulative read-path admission work (compression included).", "counter", t.PromoteTime.Seconds())
		write("prisma_tiering_decode_seconds_total", "Cumulative hit-path decompression.", "counter", t.DecodeTime.Seconds())
	}
	clusterEnabled := 0.0
	if h.cfg.Cluster != nil {
		clusterEnabled = 1
	}
	write("prisma_cluster_enabled", "1 when the multi-node prefetch fabric is wired in.", "gauge", clusterEnabled)
	if h.cfg.Cluster != nil {
		cs := h.cfg.Cluster()
		write("prisma_cluster_nodes", "Nodes in the placement ring (including this one).", "gauge", float64(len(cs.Nodes)))
		write("prisma_cluster_local_reads_total", "Reads served by this node's own stage (ring-owned).", "counter", float64(cs.LocalReads))
		write("prisma_cluster_peer_reads_total", "Reads forwarded to the owning peer's buffer.", "counter", float64(cs.PeerReads))
		write("prisma_cluster_peer_serves_total", "Forwarded reads this node served from its buffer.", "counter", float64(cs.PeerServes))
		write("prisma_cluster_peer_errors_total", "Peer forwards that failed and fell back.", "counter", float64(cs.PeerErrors))
		write("prisma_cluster_failovers_total", "Reads served by the slow store after a peer failure.", "counter", float64(cs.Failovers))
		write("prisma_cluster_peer_wait_seconds_total", "Cumulative time spent waiting on peer forwards.", "counter", cs.PeerWait.Seconds())
		write("prisma_cluster_max_failover_latency_seconds", "Worst single peer-failure read (peer attempt plus slow-store fallback).", "gauge", cs.MaxFailoverLatency.Seconds())
	}
	writeHistogram(w, "prisma_storage_read_latency_seconds", "Producer-observed backend read latency.", s.StorageReadLatency)
	writeHistogram(w, "prisma_consumer_wait_latency_seconds", "Per-Take consumer blocking time.", s.Buffer.WaitHist)
	if h.cfg.Tenants != nil {
		writeTenantMetrics(w, h.cfg.Tenants())
	}
}

// cluster serves the multi-node fabric snapshot: GET /cluster returns the
// ClusterStats as JSON, 501 when this instance is not part of a cluster.
func (h *Handler) cluster(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Cluster == nil {
		http.Error(w, "cluster fabric not enabled", http.StatusNotImplemented)
		return
	}
	writeJSON(w, h.cfg.Cluster())
}

// bundle serves the one-shot diagnostic capture: GET /debug/bundle
// returns a Bundle as JSON. ?spans=N bounds the embedded spans (0 omits
// them entirely).
func (h *Handler) bundle(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if v := r.URL.Query().Get("spans"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad spans value", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, BuildBundle(h.dp, h.cfg, limit))
}

// tiering serves the fast-tier snapshot: GET /tiering returns the
// memory hierarchy's stats carried by the stage snapshot as JSON, 501 when the memory
// hierarchy has no fast tier (none at all, or the shared cache alone).
func (h *Handler) tiering(w http.ResponseWriter, r *http.Request) {
	s := h.dp.Stats()
	if !s.TierEnabled() {
		http.Error(w, "tiering not enabled on this instance", http.StatusNotImplemented)
		return
	}
	writeJSON(w, s.Tiering)
}

// writeTenantMetrics renders the per-tenant QoS series, one labeled
// sample per tenant under each family.
func writeTenantMetrics(w http.ResponseWriter, snap tenancy.Snapshot) {
	overloaded := 0.0
	if snap.Overloaded {
		overloaded = 1
	}
	fmt.Fprintf(w, "# HELP prisma_tenant_overloaded 1 while the admission gate sheds instead of queueing.\n# TYPE prisma_tenant_overloaded gauge\nprisma_tenant_overloaded %g\n", overloaded)
	fmt.Fprintf(w, "# HELP prisma_tenant_capacity Total read rate distributed across tenants.\n# TYPE prisma_tenant_capacity gauge\nprisma_tenant_capacity %g\n", snap.Capacity)
	series := func(name, help, typ string, value func(tenancy.TenantStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, ts := range snap.Tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, ts.Name, value(ts))
		}
	}
	series("prisma_tenant_weight", "Arbitration weight.", "gauge",
		func(ts tenancy.TenantStats) float64 { return ts.Weight })
	series("prisma_tenant_granted_rate", "Reads per second granted by the max-min arbiter.", "gauge",
		func(ts tenancy.TenantStats) float64 { return ts.GrantedRate })
	series("prisma_tenant_measured_rate", "Demand estimate from the last arbitration tick.", "gauge",
		func(ts tenancy.TenantStats) float64 { return ts.MeasuredRate })
	series("prisma_tenant_admitted_total", "Reads admitted through the tenant gate.", "counter",
		func(ts tenancy.TenantStats) float64 { return float64(ts.Admitted) })
	series("prisma_tenant_shed_total", "Reads refused at admission with a typed overload error.", "counter",
		func(ts tenancy.TenantStats) float64 { return float64(ts.Shed) })
	series("prisma_tenant_bytes_read_total", "Payload bytes attributed to the tenant.", "counter",
		func(ts tenancy.TenantStats) float64 { return float64(ts.BytesRead) })
	series("prisma_tenant_errors_total", "Failed reads attributed to the tenant.", "counter",
		func(ts tenancy.TenantStats) float64 { return float64(ts.Errors) })
	series("prisma_tenant_byte_budget", "Byte budget in bytes per second (0 = unmetered).", "gauge",
		func(ts tenancy.TenantStats) float64 { return ts.ByteBudget })
	series("prisma_tenant_in_debt", "1 while the tenant's byte budget is in debt.", "gauge",
		func(ts tenancy.TenantStats) float64 {
			if ts.InDebt {
				return 1
			}
			return 0
		})
	fmt.Fprintf(w, "# HELP prisma_tenant_read_latency_seconds End-to-end tenant read latency (admission wait included, sheds excluded).\n# TYPE prisma_tenant_read_latency_seconds histogram\n")
	for _, ts := range snap.Tenants {
		name := "prisma_tenant_read_latency_seconds"
		for _, b := range ts.Latency.Buckets {
			fmt.Fprintf(w, "%s_bucket{tenant=%q,le=%q} %d\n", name, ts.Name, strconv.FormatFloat(b.Le.Seconds(), 'g', -1, 64), b.Count)
		}
		fmt.Fprintf(w, "%s_bucket{tenant=%q,le=\"+Inf\"} %d\n", name, ts.Name, ts.Latency.Count)
		fmt.Fprintf(w, "%s_sum{tenant=%q} %g\n", name, ts.Name, ts.Latency.Sum.Seconds())
		fmt.Fprintf(w, "%s_count{tenant=%q} %d\n", name, ts.Name, ts.Latency.Count)
	}
	writeSLOMetrics(w, snap)
}

// sloStateValue encodes an SLO state for the prisma_slo_state gauge.
func sloStateValue(state string) float64 {
	switch state {
	case obs.SLOWarn:
		return 1
	case obs.SLOBreach:
		return 2
	default:
		return 0
	}
}

// writeSLOMetrics renders the per-tenant SLO series for tenants that have
// an objective configured.
func writeSLOMetrics(w http.ResponseWriter, snap tenancy.Snapshot) {
	any := false
	for _, ts := range snap.Tenants {
		if ts.SLO != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "# HELP prisma_slo_state Tenant SLO state: 0 ok, 1 warn, 2 breach.\n# TYPE prisma_slo_state gauge\n")
	for _, ts := range snap.Tenants {
		if ts.SLO != nil {
			fmt.Fprintf(w, "prisma_slo_state{tenant=%q} %g\n", ts.Name, sloStateValue(ts.SLO.State))
		}
	}
	fmt.Fprintf(w, "# HELP prisma_slo_burn_rate Error-budget burn rate over the short and long windows.\n# TYPE prisma_slo_burn_rate gauge\n")
	for _, ts := range snap.Tenants {
		if ts.SLO != nil {
			fmt.Fprintf(w, "prisma_slo_burn_rate{tenant=%q,window=\"short\"} %g\n", ts.Name, ts.SLO.BurnShort)
			fmt.Fprintf(w, "prisma_slo_burn_rate{tenant=%q,window=\"long\"} %g\n", ts.Name, ts.SLO.BurnLong)
		}
	}
	fmt.Fprintf(w, "# HELP prisma_slo_budget_remaining Fraction of the long-window error budget left.\n# TYPE prisma_slo_budget_remaining gauge\n")
	for _, ts := range snap.Tenants {
		if ts.SLO != nil {
			fmt.Fprintf(w, "prisma_slo_budget_remaining{tenant=%q} %g\n", ts.Name, ts.SLO.BudgetRemaining)
		}
	}
	fmt.Fprintf(w, "# HELP prisma_slo_boosted 1 while the tenant holds an SLO breach weight boost.\n# TYPE prisma_slo_boosted gauge\n")
	for _, ts := range snap.Tenants {
		if ts.SLO != nil {
			boosted := 0.0
			if ts.SLOBoosted {
				boosted = 1
			}
			fmt.Fprintf(w, "prisma_slo_boosted{tenant=%q} %g\n", ts.Name, boosted)
		}
	}
}

// tenants serves per-tenant QoS: GET /tenants returns the snapshot as
// JSON. A tenant's knobs are set through /tuning.
func (h *Handler) tenants(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Tenants == nil {
		http.Error(w, "tenancy not enabled on this instance", http.StatusNotImplemented)
		return
	}
	writeJSON(w, h.cfg.Tenants())
}

// attribution renders the cumulative critical-path breakdown since stage
// start: how consumer time divides between storage waits, buffer-capacity
// waits, and keeping up. ?consumers=N overrides the configured denominator.
func (h *Handler) attribution(w http.ResponseWriter, r *http.Request) {
	consumers := h.cfg.Consumers
	if v := r.URL.Query().Get("consumers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad consumers value", http.StatusBadRequest)
			return
		}
		consumers = n
	}
	writeJSON(w, h.dp.Stats().Attribution(core.StageStats{}, consumers))
}

// decisions returns the autotuner's decision audit log as JSON.
func (h *Handler) decisions(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Decisions == nil {
		http.Error(w, "decision log unavailable: no controller attached", http.StatusNotImplemented)
		return
	}
	writeJSON(w, append([]control.DecisionRecord{}, h.cfg.Decisions()...)) // [] rather than null
}

// epochManager is the optional extension for data planes with an
// epoch-aware plan manager (core.Stage has one when a prefetcher is
// attached; its methods degrade gracefully without one).
type epochManager interface {
	Epochs() []core.EpochStatus
	CancelEpoch(id core.EpochID) (int, error)
}

// epochs serves the plan-epoch lifecycle: GET /epochs lists the retained
// epoch statuses; POST /epochs?cancel=ID cancels one epoch and reports how
// many plan entries were removed.
func (h *Handler) epochs(w http.ResponseWriter, r *http.Request) {
	em, ok := h.dp.(epochManager)
	if !ok {
		http.Error(w, "data plane does not support plan epochs", http.StatusNotImplemented)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, append([]core.EpochStatus{}, em.Epochs()...)) // [] rather than null
	case http.MethodPost:
		v := r.URL.Query().Get("cancel")
		if v == "" {
			http.Error(w, "nothing to apply (use ?cancel=ID)", http.StatusBadRequest)
			return
		}
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil || id == 0 {
			http.Error(w, "bad epoch id", http.StatusBadRequest)
			return
		}
		removed, err := em.CancelEpoch(core.EpochID(id))
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, core.ErrUnknownEpoch) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, map[string]uint64{"cancelled": id, "removed": uint64(removed)})
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// tuning applies knob updates through the control table:
// POST /tuning?KEY=VALUE&… with the table's keys. The table checks every
// pair before it applies any, so a request with an unknown or bad pair
// changes nothing; its answer names the pair.
func (h *Handler) tuning(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Control == nil {
		http.Error(w, "no control table attached", http.StatusNotImplemented)
		return
	}
	var settings []string
	for key, values := range r.URL.Query() {
		for _, v := range values {
			settings = append(settings, key+"="+v)
		}
	}
	sort.Strings(settings) // the table's answer names the first bad pair
	if err := h.cfg.Control(settings...); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string][]string{"applied": settings})
}
