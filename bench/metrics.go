package main

// The benchmark's contract: every workload and metric name, with unit,
// direction and bound. BENCHMARK.json at the repository root is generated
// from these tables (`-contract`) and a test keeps the two identical, so a
// name exists in exactly one place in code.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

const (
	higher = "higher"
	lower  = "lower"
)

var workloadDefs = []workloadDef{
	{"sock_small", "8192 x 4 KiB over the socket: per-request cost (frames, syscalls, buffer take) dominates; where ipc does most of the work"},
	{"sock_large", "2048 log-normal files, mean 110 KiB, over the socket: byte movement dominates (file read, payload through the socket, pooling)"},
	{"inproc_small", "small dataset, two in-process consumers: ipc does nothing, so storage and core set the rate; an ipc change must leave it unmoved"},
	{"chain_fit", "med dataset through tenancy + shared cache + LZ tier + sampled spans, working set fits the tier: every read is a hit with a decode"},
	{"chain_spill", "same chain, tier byte budget a quarter of the working set: most reads miss and pay device read + LZ promotion + eviction"},
}

// endToEnd is what a training job sees. Two metrics of the issue's table
// are per-layer cells instead. failed_frac: the contract forbids a metric
// that is normally 0; it is the result line's failed/attempted and
// bench.failed_frac. read_p99_us: on a quiet machine it repeats within 9 %
// from seed to seed, but in a noisy quarter of an hour its interquartile
// spread reached 24 % on chain_fit, the whole of the widest bound the
// contract allows, so by the issue's own rule it is demoted to
// bench.read_p99_us, reported and not gated.
//
// The timing bounds are the contract's cap. On the reference VM the host's
// speed wanders by 10-15 % over minutes at some hours (README, "Baseline"),
// and a bound narrower than that rejects unchanged code.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", higher, 0.25},
	{"mb_per_s", "MB/s", higher, 0.25},
	{"read_p50_us", "us", lower, 0.25},
	{"cpu_us_per_sample", "us", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.15},
	{"setup_s", "s", lower, 0.25},
}

var perLayer = []metricDef{
	{"dataset.scan_us_per_file", "us", lower, 0},

	{"storage.dir_read_us", "us", lower, 0},
	{"storage.dir_read_large_us", "us", lower, 0},
	{"storage.dir_rd_syscalls_per_read", "count", lower, 0},
	{"storage.dir_cpu_us_per_read", "us", lower, 0},
	{"storage.resilient_self_us", "us", lower, 0},
	{"storage.busy_us_per_sample", "us", lower, 0},
	{"storage.retries", "count", lower, 0},

	{"sharedcache.hit_us", "us", lower, 0},
	{"sharedcache.miss_self_us", "us", lower, 0},
	{"sharedcache.hit_ratio", "ratio", higher, 0},
	{"sharedcache.evictions_per_sample", "count", lower, 0},
	{"sharedcache.device_reads_per_sample", "count", lower, 0},
	{"sharedcache.coalesce_wait_us_per_sample", "us", lower, 0},

	{"tiering.hit_us", "us", lower, 0},
	{"tiering.lz_hit_us", "us", lower, 0},
	{"tiering.promote_self_us", "us", lower, 0},
	{"tiering.lz_promote_self_us", "us", lower, 0},
	{"tiering.hit_ratio", "ratio", higher, 0},
	{"tiering.promotions_per_sample", "count", lower, 0},
	{"tiering.evictions_per_sample", "count", lower, 0},
	{"tiering.decode_us_per_hit", "us", lower, 0},
	{"tiering.promote_us_per_promotion", "us", lower, 0},
	{"tiering.stored_per_logical_byte", "ratio", lower, 0},
	{"tiering.warm_promotions_per_epoch", "count", higher, 0},

	{"core.submit_us_per_entry", "us", lower, 0},
	{"core.first_sample_ms", "ms", lower, 0},
	{"core.buffer_hit_us", "us", lower, 0},
	{"core.hit_ratio", "ratio", higher, 0},
	{"core.bypass_ratio", "ratio", lower, 0},
	{"core.consumer_wait_us_per_sample", "us", lower, 0},
	{"core.consumer_wait_storage_us_per_sample", "us", lower, 0},
	{"core.consumer_wait_buffer_full_us_per_sample", "us", lower, 0},
	{"core.producer_wait_us_per_sample", "us", lower, 0},
	{"core.exactly_once_violations", "count", lower, 0},

	{"mempool.hit_rate", "ratio", higher, 0},
	{"mempool.outstanding_end", "count", lower, 0},
	{"mempool.saving_us", "us", higher, 0},
	{"mempool.allocs_saved_per_read", "count", higher, 0},

	{"ipc.roundtrip_self_us", "us", lower, 0},
	{"ipc.payload_us_per_mib", "us/MiB", lower, 0},
	{"ipc.rdwr_syscalls_per_read", "count", lower, 0},
	{"ipc.cpu_us_per_read", "us", lower, 0},
	{"ipc.submit_us_per_entry", "us", lower, 0},

	{"tenancy.gate_self_us", "us", lower, 0},
	{"tenancy.throttle_wait_us_per_sample", "us", lower, 0},
	{"tenancy.shed", "count", lower, 0},

	{"obs.sampled_read_self_us", "us", lower, 0},
	{"obs.attr_storage_share", "ratio", lower, 0},
	{"obs.attr_buffer_full_share", "ratio", lower, 0},
	{"obs.attr_cache_share", "ratio", lower, 0},
	{"obs.attr_tier_share", "ratio", lower, 0},
	{"obs.attr_throttle_share", "ratio", lower, 0},
	{"obs.attr_consumer_share", "ratio", higher, 0},

	{"control.autotune_rate_ratio", "ratio", higher, 0},
	{"control.producers_final", "count", lower, 0},
	{"control.buffer_final", "count", lower, 0},
	{"control.decisions", "count", lower, 0},

	{"proc.user_cpu_us_per_sample", "us", lower, 0},
	{"proc.sys_cpu_us_per_sample", "us", lower, 0},
	{"proc.rd_syscalls_per_sample", "count", lower, 0},
	{"proc.wr_syscalls_per_sample", "count", lower, 0},
	{"proc.ctx_switches_per_sample", "count", lower, 0},
	{"proc.allocs_per_sample", "count", lower, 0},
	{"proc.alloc_bytes_per_sample", "B", lower, 0},
	{"proc.gc_pause_ms_per_s", "ms/s", lower, 0},
	{"proc.gc_cycles_per_s", "1/s", lower, 0},
	{"proc.goroutines_end", "count", lower, 0},
	{"proc.fds_end", "count", lower, 0},

	{"bench.samples", "count", higher, 0},
	{"bench.epochs", "count", higher, 0},
	{"bench.epoch_cv", "ratio", lower, 0},
	{"bench.read_p99_us", "us", lower, 0},
	{"bench.read_p999_us", "us", lower, 0},
	{"bench.trace_overhead_frac", "ratio", lower, 0},
	{"bench.loop_self_us_per_sample", "us", lower, 0},
	{"bench.verify_us_per_sample", "us", lower, 0},
	{"bench.datagen_s", "s", lower, 0},
	{"bench.failed_frac", "ratio", lower, 0},
}

// benchmarkContract is the shape of BENCHMARK.json.
type benchmarkContract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const runSeconds = 10

func contract() benchmarkContract {
	return benchmarkContract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
