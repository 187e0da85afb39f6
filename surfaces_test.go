package prisma

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// surfaceInstance opens an instance with every layer on (I/O trace, the one
// memory hierarchy with both budgets, resilience, tenancy, a one-node
// cluster, spans) serving a socket and an admin handler, and drives a fixed
// sequence of reads through it: one planned epoch in process, one over the
// socket, one unplanned read. The controller is off so the snapshot holds
// still once the reads are done.
func surfaceInstance(t *testing.T) (*Prisma, *Client, *httptest.Server) {
	t.Helper()
	dir := makeDataset(t, 16)
	p := open(t, dir, func(o *Options) {
		everyLayer(o)
		o.DisableAutoTune = true
		o.TraceFile = filepath.Join(t.TempDir(), "io.jsonl")
		o.TraceSampling = 1
	})
	sock := filepath.Join(shortTempDir(t), "surfaces.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	names := p.ShuffledFileList(1, 0)
	if err := p.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := p.Read(n); err != nil {
			t.Fatal(err)
		}
	}
	names = p.ShuffledFileList(1, 1)
	if err := c.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := c.Read(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.AdminHandler())
	t.Cleanup(srv.Close)
	return p, c, srv
}

// getBody fetches one admin path and fails unless it answers 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// jsonKeys lists the dotted key paths of a JSON object, descending into
// nested objects but not into arrays (whose elements vary with traffic).
func jsonKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			keys = append(keys, prefix+k)
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", v)
	sort.Strings(keys)
	return keys
}

// metricFamilies lists the family names a Prometheus text page declares.
func metricFamilies(page []byte) []string {
	var fams []string
	for _, line := range strings.Split(string(page), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams = append(fams, f[2])
		}
	}
	sort.Strings(fams)
	return fams
}

func pinKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if reflect.DeepEqual(got, want) {
		return
	}
	have := map[string]bool{}
	for _, k := range got {
		have[k] = true
	}
	wanted := map[string]bool{}
	for _, k := range want {
		wanted[k] = true
		if !have[k] {
			t.Errorf("%s: %s missing", what, k)
		}
	}
	for _, k := range got {
		if !wanted[k] {
			t.Errorf("%s: %s not pinned", what, k)
		}
	}
}

// TestSurfaces pins what the observability surfaces of an every-layer
// instance carry: the /metrics family set, the JSON key sets of /stats,
// /tiering, /attribution and the diagnostic bundle, and the socket client's
// Stats agreeing with the in-process one. A counter that vanishes from a
// surface, or one that appears on it, shows up here.
func TestSurfaces(t *testing.T) {
	p, c, srv := surfaceInstance(t)

	pinKeys(t, "/metrics", metricFamilies(getBody(t, srv.URL+"/metrics")), surfaceMetricFamilies)
	pinKeys(t, "/stats", jsonKeys(t, getBody(t, srv.URL+"/stats")), surfaceStatsKeys())
	pinKeys(t, "/tiering", jsonKeys(t, getBody(t, srv.URL+"/tiering")), surfaceTieringKeys)
	pinKeys(t, "/attribution", jsonKeys(t, getBody(t, srv.URL+"/attribution")), surfaceAttributionKeys)
	bundle := slices.Clone(surfaceBundleKeys)
	for _, k := range surfaceStatsKeys() {
		bundle = append(bundle, "stats."+k)
	}
	for _, k := range surfaceAttributionKeys {
		bundle = append(bundle, "attribution."+k)
	}
	pinKeys(t, "/debug/bundle", jsonKeys(t, getBody(t, srv.URL+"/debug/bundle")), bundle)

	// The tier warmer may still be settling: compare the socket's view with
	// the in-process one bracketed by two equal in-process snapshots.
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := p.Stats()
		remote, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		after := p.Stats()
		if before == after {
			if remote != before {
				t.Fatalf("Client.Stats disagrees with Prisma.Stats:\nremote %+v\nlocal  %+v", remote, before)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v then %+v", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// surfaceMetricFamilies is the /metrics family set of the instance above.
var surfaceMetricFamilies = []string{
	"prisma_backend_degraded",
	"prisma_backend_exhausted_total",
	"prisma_backend_retries_total",
	"prisma_breaker_fast_fails_total",
	"prisma_breaker_opens_total",
	"prisma_buffer_capacity",
	"prisma_buffer_hits_total",
	"prisma_buffer_length",
	"prisma_buffer_shards",
	"prisma_bypasses_total",
	"prisma_cluster_enabled",
	"prisma_cluster_failovers_total",
	"prisma_cluster_local_reads_total",
	"prisma_cluster_max_failover_latency_seconds",
	"prisma_cluster_nodes",
	"prisma_cluster_peer_errors_total",
	"prisma_cluster_peer_reads_total",
	"prisma_cluster_peer_serves_total",
	"prisma_cluster_peer_wait_seconds_total",
	"prisma_consumer_wait_bufferfull_seconds_total",
	"prisma_consumer_wait_latency_seconds",
	"prisma_consumer_wait_seconds_total",
	"prisma_consumer_wait_storage_seconds_total",
	"prisma_errors_total",
	"prisma_plan_claims_in_flight",
	"prisma_plan_delivered_total",
	"prisma_plan_dropped_total",
	"prisma_plan_entries_pending",
	"prisma_plan_epochs_cancelled_total",
	"prisma_plan_epochs_live",
	"prisma_plan_epochs_submitted_total",
	"prisma_pool_arena_bytes",
	"prisma_pool_arena_carved_bytes",
	"prisma_pool_discarded_total",
	"prisma_pool_enabled",
	"prisma_pool_free_buffers",
	"prisma_pool_free_bytes",
	"prisma_pool_gets_total",
	"prisma_pool_hit_rate",
	"prisma_pool_hits_total",
	"prisma_pool_misses_total",
	"prisma_pool_outstanding_refs",
	"prisma_pool_oversize_total",
	"prisma_pool_recycled_total",
	"prisma_prefetched_files_total",
	"prisma_producer_wait_seconds_total",
	"prisma_producers",
	"prisma_queue_length",
	"prisma_read_errors_total",
	"prisma_read_payloads_arena_total",
	"prisma_read_payloads_inline_total",
	"prisma_readahead_samples_total",
	"prisma_readahead_wasted_total",
	"prisma_reads_total",
	"prisma_storage_busy_seconds_total",
	"prisma_storage_read_latency_seconds",
	"prisma_tenant_admitted_total",
	"prisma_tenant_byte_budget",
	"prisma_tenant_bytes_read_total",
	"prisma_tenant_capacity",
	"prisma_tenant_errors_total",
	"prisma_tenant_granted_rate",
	"prisma_tenant_in_debt",
	"prisma_tenant_measured_rate",
	"prisma_tenant_overloaded",
	"prisma_tenant_read_latency_seconds",
	"prisma_tenant_shed_total",
	"prisma_tenant_weight",
	"prisma_tiering_access_decays_total",
	"prisma_tiering_capacity_bytes",
	"prisma_tiering_declined_total",
	"prisma_tiering_enabled",
	"prisma_tiering_encoded_residents",
	"prisma_tiering_evictions_total",
	"prisma_tiering_fast_hits_total",
	"prisma_tiering_logical_bytes",
	"prisma_tiering_prefetch_promotions_total",
	"prisma_tiering_prefetch_skips_total",
	"prisma_tiering_promotions_total",
	"prisma_tiering_residents",
	"prisma_tiering_slow_reads_total",
	"prisma_tiering_tracked_names",
	"prisma_tiering_used_bytes",
	// The hierarchy's window, joined reads and their wait, promote and decode time.
	"prisma_tiering_window_bytes",
	"prisma_tiering_joined_reads_total",
	"prisma_tiering_joined_wait_seconds_total",
	"prisma_tiering_promote_seconds_total",
	"prisma_tiering_decode_seconds_total",
	"prisma_trace_sampling",
}

// surfaceTieringKeys is the memory hierarchy's snapshot as /tiering serves it.
var surfaceTieringKeys = []string{
	"AccessDecays", "Capacity", "Declined",
	"DecodeTime", "Encoded", "Evictions", "FastHits",
	"FastLogical", "FastUsed", "PrefetchPromotions",
	"PrefetchSkips", "PromoteTime", "Promotions",
	"Residents", "SlowReads", "TrackedNames",
	"WaitTime", "Waits", "Window",
}

// surfaceAttributionKeys is the attribution split as /attribution serves it.
var surfaceAttributionKeys = []string{
	"buffer_full_share", "buffer_wait", "cache_share",
	"cache_wait", "consumer_share", "consumer_wait",
	"consumers", "ipc_overhead", "ipc_share",
	"peer_share", "peer_wait", "producer_park",
	"storage_busy", "storage_share", "storage_wait",
	"throttle_share", "throttle_wait", "tier_share",
	"tier_wait", "window",
}

// surfaceBundleKeys is the bundle's own keys (its stats and attribution
// sections are the two pinned above).
var surfaceBundleKeys = []string{
	"attribution", "captured_at", "cluster",
	"cluster.failovers", "cluster.local_reads", "cluster.max_failover_latency",
	"cluster.node", "cluster.nodes", "cluster.peer_errors",
	"cluster.peer_reads", "cluster.peer_serves", "cluster.peer_wait",
	"epochs", "spans", "stats",
	"tenants", "tenants.capacity", "tenants.overloaded",
	"tenants.tenants",
}

// surfaceStatsKeys is the stage snapshot as /stats serves it.
func surfaceStatsKeys() []string {
	keys := []string{
		"ArenaPayloads", "Buffer", "Buffer.Capacity",
		"Buffer.ConsumerWait", "Buffer.ConsumerWaitBufferFull", "Buffer.ConsumerWaitStorage",
		"Buffer.Len", "Buffer.MeanOccupancy", "Buffer.ProducerWait",
		"Buffer.Puts", "Buffer.Shards", "Buffer.Takes",
		"Buffer.WaitHist", "Buffer.WaitHist.buckets", "Buffer.WaitHist.count",
		"Buffer.WaitHist.sum", "Bypasses", "Errors",
		"Hits", "InlinePayloads", "Now",
		"Plan", "Plan.claims_in_flight", "Plan.delivered",
		"Plan.dropped", "Plan.entries_pending", "Plan.epochs_cancelled",
		"Plan.epochs_live", "Plan.epochs_submitted", "Pool",
		"Pool.arena_capacity_bytes", "Pool.arena_carved_bytes",
		"Pool.classes", "Pool.discarded", "Pool.free_buffers",
		"Pool.free_bytes", "Pool.gets", "Pool.hit_rate",
		"Pool.hits", "Pool.misses", "Pool.outstanding",
		"Pool.oversize", "Pool.recycled", "PoolEnabled",
		"PrefetchedFiles", "QueueLen", "ReadAheadSamples",
		"ReadAheadWasted", "ReadErrors", "Reads",
		"Resilience", "Resilience.Attempts",
		"Resilience.BreakerOpens", "Resilience.DeadlineExceeded", "Resilience.Degraded",
		"Resilience.Exhausted", "Resilience.Failures", "Resilience.FastFails",
		"Resilience.Retries", "Resilience.State",
		"RunningProducers", "Shed", "StorageBusy",
		"StorageReadLatency", "StorageReadLatency.buckets", "StorageReadLatency.count",
		"StorageReadLatency.sum", "TargetProducers", "ThrottleWait",
		"Tiering", "TieringEnabled", "TraceSampling",
	}
	for _, k := range surfaceTieringKeys {
		keys = append(keys, "Tiering."+k)
	}
	return keys
}
