package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
)

// The probe ladder prices each layer from outside. One goroutine issues
// unplanned reads (synchronous down the chain, no prefetcher) against
// instances that differ by one public option; the variants of a dataset are
// alternated pass by pass in one process, so drift hits every rung alike,
// and a layer's self time is the paired p50 difference between adjacent
// rungs.

const ladderPasses = 3

// rungSpec is one ladder variant. A group of rungs is cumulative: each
// rung's options are the previous rung's plus its own step, so adjacent
// rungs differ by exactly one layer.
type rungSpec struct {
	name   string
	socket bool // read through ServeUnix with one Client
	step   func(o *prisma.Options, totalBytes int64)
}

var (
	bareRung      = rungSpec{name: "bare", step: func(o *prisma.Options, _ int64) { o.DisableResilience = true }}
	resilientRung = rungSpec{name: "resilient", step: func(o *prisma.Options, _ int64) { o.DisableResilience = false }}
)

// The serving chain. Cache and tier are sized to hold the whole dataset:
// pass 1 is all misses and promotions, later passes are all hits.
var chainRungs = []rungSpec{
	bareRung,
	resilientRung,
	{name: "tenancy", step: func(o *prisma.Options, _ int64) {
		o.Tenancy = prisma.TenancyOptions{Enable: true, Capacity: tenancyUnlimited, MaxQueueDepth: -1}
	}},
	{name: "sharedcache", step: func(o *prisma.Options, total int64) { o.Tenancy.SharedCacheBytes = 2 * total }},
	{name: "tiering", step: func(o *prisma.Options, total int64) {
		o.Tiering = prisma.TieringOptions{Enable: true, CapacityBytes: 2 * total}
	}},
	{name: "tiering_lz", step: func(o *prisma.Options, _ int64) { o.Tiering.Compress = true }},
	{name: "sampled", step: func(o *prisma.Options, _ int64) { o.TraceSampling = 1 }},
}

// The buffer pool is priced in a group of its own: without pooling every
// read allocates its payload, and while the cache and tier rungs above hold
// the whole dataset live a GC cycle is long enough to cover a pass and
// charge its mark assists to whichever rung is allocating.
var poolRungs = []rungSpec{
	resilientRung,
	{name: "nopool", step: func(o *prisma.Options, _ int64) { o.BufferPool.Disable = true }},
}

// The directory read and the socket hop.
var transportRungs = []rungSpec{
	bareRung,
	resilientRung,
	{name: "sock", socket: true, step: func(*prisma.Options, int64) {}},
}

// passStat is one pass of one rung over the dataset.
type passStat struct {
	p50us        float64
	cpuUs        float64 // process CPU per read
	rdSyscalls   float64 // read-class syscalls per read
	rdwrSyscalls float64 // read- plus write-class syscalls per read
	allocs       float64 // heap allocations per read
}

type rungResult [ladderPasses]passStat

// over returns the median of f over the given passes (all when none given).
func (r *rungResult) over(f func(passStat) float64, passes ...int) float64 {
	var xs []float64
	for p := range r {
		if len(passes) == 0 || slices.Contains(passes, p) {
			xs = append(xs, f(r[p]))
		}
	}
	return median(xs)
}

// diff is the paired difference a - b of f: per pass first, then the median.
func diff(a, b *rungResult, f func(passStat) float64, passes ...int) float64 {
	var d rungResult
	for p := range d {
		d[p].p50us = f(a[p]) - f(b[p])
	}
	return d.over(p50, passes...)
}

func p50(s passStat) float64    { return s.p50us }
func cpuUs(s passStat) float64  { return s.cpuUs }
func allocs(s passStat) float64 { return s.allocs }
func rdwr(s passStat) float64   { return s.rdwrSyscalls }

// exact reports whether f repeated exactly across the passes.
func (r *rungResult) exact(f func(passStat) float64) bool {
	return f(r[0]) == f(r[1]) && f(r[1]) == f(r[2])
}

// readTally accumulates reads across windows and probes towards the
// run's attempted/failed totals.
type readTally struct{ attempted, failed int64 }

// runRungs opens every rung on g, then alternates them pass by pass.
func runRungs(g *groundTruth, rungs []rungSpec, seed int64, sockDir string, tally *readTally) (map[string]*rungResult, error) {
	instances := make([]*instance, 0, len(rungs))
	defer func() {
		for _, in := range instances {
			in.Close()
		}
		releaseMemory()
	}()
	o := staticOptions(g.Dir)
	for _, rs := range rungs {
		rs.step(&o, g.TotalBytes)
		in, err := openInstance(o, rs.socket, sockDir, 1, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", rs.name, err)
		}
		instances = append(instances, in)
	}
	order := make([]int32, len(g.Entries))
	for i := range order {
		order[i] = int32(i)
	}
	seedFor(seed, 0x6c6164).shuffle(order)
	selfCost := procIOSelfCost()

	out := make(map[string]*rungResult, len(rungs))
	for _, rs := range rungs {
		out[rs.name] = new(rungResult)
	}
	lat := make([]uint32, 0, len(order))
	for pass := 0; pass < ladderPasses; pass++ {
		for i, rs := range rungs {
			out[rs.name][pass] = ladderPass(instances[i].readers[0], g, order, lat, selfCost, tally)
		}
	}
	return out, nil
}

// probeRead is one timed, fingerprint-checked read.
func probeRead(reader sampleReader, e *entry, tally *readTally) (time.Duration, bool) {
	tally.attempted++
	t0 := time.Now()
	s, err := reader.ReadSample(e.Name)
	d := time.Since(t0)
	if err != nil {
		tally.failed++
		return 0, false
	}
	ok := e.verifyQuick(s.Bytes())
	s.Release()
	if !ok {
		tally.failed++
	}
	return d, ok
}

// ladderPass reads every file once, in order, from one goroutine.
func ladderPass(reader sampleReader, g *groundTruth, order []int32, lat []uint32, selfCost int64, tally *readTally) passStat {
	lat = lat[:0]
	// Let the previous rung settle first: a socket rung's server posts one
	// more read after its last response, and that call must not be counted
	// against this rung. The sleep ends before the first counter is read.
	time.Sleep(time.Millisecond)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readProcCounters()
	for _, idx := range order {
		if d, ok := probeRead(reader, &g.Entries[idx], tally); ok {
			lat = append(lat, nanos(d))
		}
	}
	c1 := readProcCounters()
	runtime.ReadMemStats(&m1)
	n := float64(len(order))
	rd := float64(c1.syscr - c0.syscr - selfCost)
	return passStat{
		p50us:        percentile(sortedMicros(lat), 0.5),
		cpuUs:        us(c1.cpu()-c0.cpu()) / n,
		rdSyscalls:   rd / n,
		rdwrSyscalls: (rd + float64(c1.syscw-c0.syscw)) / n,
		allocs:       float64(m1.Mallocs-m0.Mallocs) / n,
	}
}

// medianSize is the size of the file a p50 latency belongs to.
func medianSize(g *groundTruth) float64 {
	sizes := make([]int, len(g.Entries))
	for i := range g.Entries {
		sizes[i] = g.Entries[i].Size
	}
	sort.Ints(sizes)
	return float64(sizes[len(sizes)/2])
}

// plannedHitProbe prices a read that finds its sample already parked in the
// prefetch buffer, and the plan submission itself, in-process and over the
// socket: submit a buffer's worth of entries, wait until Stats reports them
// all prefetched, then read them.
func plannedHitProbe(g *groundTruth, seed int64, sockDir string, tally *readTally, m map[string]float64) error {
	const rounds = 8
	order := append([]int32(nil), g.Planned...)
	seedFor(seed, 0x686974).shuffle(order)

	var variants [2]*instance // in-process, socket
	for i := range variants {
		in, err := openInstance(staticOptions(g.Dir), i == 1, sockDir, 1, nil, nil)
		if err != nil {
			return err
		}
		defer in.Close()
		variants[i] = in
	}
	// The buffer's capacity is split evenly between its shards and names
	// hash to shards, so only one shard's worth is sure to park.
	st := variants[0].p.Stats()
	batch := min(st.BufferCapacity/st.BufferShards, len(order))
	var (
		submitUs [2][]float64
		lat      []uint32
		next     int
	)
	for round := 0; round < rounds; round++ {
		for v, in := range variants {
			idxs := make([]int32, batch)
			names := make([]string, batch)
			for i := range idxs {
				idxs[i] = order[next%len(order)]
				names[i] = g.Entries[idxs[i]].Name
				next++
			}
			base := in.p.Stats().PrefetchedFiles
			t0 := time.Now()
			if _, enq, err := in.submit(names); err != nil || enq != batch {
				return fmt.Errorf("planned-hit probe: SubmitEpoch enqueued %d of %d: %v", enq, batch, err)
			}
			submitUs[v] = append(submitUs[v], us(time.Since(t0))/float64(batch))
			for deadline := time.Now().Add(10 * time.Second); in.p.Stats().PrefetchedFiles-base < int64(batch); {
				if time.Now().After(deadline) {
					return fmt.Errorf("planned-hit probe: %d entries never parked", batch)
				}
				time.Sleep(100 * time.Microsecond)
			}
			for _, idx := range idxs {
				if d, ok := probeRead(in.readers[0], &g.Entries[idx], tally); ok && v == 0 {
					lat = append(lat, nanos(d))
				}
			}
		}
	}
	m["core.buffer_hit_us"] = percentile(sortedMicros(lat), 0.5)
	m["ipc.submit_us_per_entry"] = median(submitUs[1]) - median(submitUs[0])
	return nil
}

// autotuneProbe runs sock_large twice, with static tuning and with the
// default autotuner, and records their rate ratio and where the autotuner
// ended up. Every workload runs static by design; this cell says whether a
// later benchmark issue should add an autotuned workload.
func autotuneProbe(g *groundTruth, seed int64, sockDir string, staticFor, autoFor time.Duration, tally *readTally, m map[string]float64) error {
	w, _ := findWorkload("sock_large")
	measure := func(opts prisma.Options, d time.Duration, after func(*instance) error) (float64, error) {
		su, err := setup(w, opts, g, seed, sockDir, nil)
		if err != nil {
			return 0, err
		}
		defer su.in.Close()
		win, err := su.r.runWindow(d, verifyQuick, nil)
		if err != nil {
			return 0, err
		}
		tally.attempted += su.attempts + win.attempted
		tally.failed += su.failed + win.failed
		if after != nil {
			if err := after(su.in); err != nil {
				return 0, err
			}
		}
		return win.summarize().samplesPerS, nil
	}
	static, err := measure(w.options(g.Dir, len(g.Entries)), staticFor, nil)
	if err != nil {
		return fmt.Errorf("autotune probe (static): %w", err)
	}
	releaseMemory()
	auto, err := measure(prisma.Options{Dir: g.Dir}, autoFor, func(in *instance) error {
		st := in.p.Stats()
		m["control.producers_final"] = float64(st.Producers)
		m["control.buffer_final"] = float64(st.BufferCapacity)
		raw, err := in.clients[0].Decisions()
		if err != nil {
			return err
		}
		var decisions []json.RawMessage
		if err := json.Unmarshal(raw, &decisions); err != nil {
			return err
		}
		m["control.decisions"] = float64(len(decisions))
		return nil
	})
	if err != nil {
		return fmt.Errorf("autotune probe (autotuned): %w", err)
	}
	releaseMemory()
	m["control.autotune_rate_ratio"] = ratio(auto, static)
	return nil
}

// runLadder fills m with every probe-ladder cell and returns the names of
// the cells whose exact counts did not repeat across the passes.
func runLadder(sets map[string]*groundTruth, seed int64, sockDir string, staticFor, autoFor time.Duration, tally *readTally, m map[string]float64) (unstable []string, err error) {
	small, err := runRungs(sets["small"], transportRungs, seed, sockDir, tally)
	if err != nil {
		return nil, err
	}
	large, err := runRungs(sets["large"], transportRungs, seed, sockDir, tally)
	if err != nil {
		return nil, err
	}
	med, err := runRungs(sets["med"], chainRungs, seed, sockDir, tally)
	if err != nil {
		return nil, err
	}
	pool, err := runRungs(sets["med"], poolRungs, seed, sockDir, tally)
	if err != nil {
		return nil, err
	}
	hits := []int{1, 2}

	m["storage.dir_read_us"] = small["bare"].over(p50)
	m["storage.dir_read_large_us"] = large["bare"].over(p50)
	m["storage.dir_rd_syscalls_per_read"] = small["bare"].over(func(s passStat) float64 { return s.rdSyscalls })
	m["storage.dir_cpu_us_per_read"] = small["bare"].over(cpuUs)
	m["storage.resilient_self_us"] = diff(med["resilient"], med["bare"], p50)

	m["tenancy.gate_self_us"] = diff(med["tenancy"], med["resilient"], p50)
	m["sharedcache.miss_self_us"] = diff(med["sharedcache"], med["tenancy"], p50, 0)
	m["sharedcache.hit_us"] = med["sharedcache"].over(p50, hits...)
	m["tiering.promote_self_us"] = diff(med["tiering"], med["sharedcache"], p50, 0)
	m["tiering.lz_promote_self_us"] = diff(med["tiering_lz"], med["sharedcache"], p50, 0)
	m["tiering.hit_us"] = med["tiering"].over(p50, hits...)
	m["tiering.lz_hit_us"] = med["tiering_lz"].over(p50, hits...)
	m["obs.sampled_read_self_us"] = diff(med["sampled"], med["tiering_lz"], p50, hits...)

	m["mempool.saving_us"] = diff(pool["nopool"], pool["resilient"], p50)
	m["mempool.allocs_saved_per_read"] = diff(pool["nopool"], pool["resilient"], allocs)

	roundtrip := diff(small["sock"], small["resilient"], p50)
	m["ipc.roundtrip_self_us"] = roundtrip
	extraMiB := (medianSize(sets["large"]) - medianSize(sets["small"])) / (1 << 20)
	m["ipc.payload_us_per_mib"] = ratio(diff(large["sock"], large["resilient"], p50)-roundtrip, extraMiB)
	m["ipc.rdwr_syscalls_per_read"] = diff(small["sock"], small["resilient"], rdwr)
	m["ipc.cpu_us_per_read"] = diff(small["sock"], small["resilient"], cpuUs)

	// One goroutine and no timers: these counts must repeat exactly.
	if !small["bare"].exact(func(s passStat) float64 { return s.rdSyscalls }) {
		unstable = append(unstable, "storage.dir_rd_syscalls_per_read")
	}
	if !small["sock"].exact(rdwr) || !small["resilient"].exact(rdwr) {
		unstable = append(unstable, "ipc.rdwr_syscalls_per_read")
	}
	for _, name := range unstable {
		fmt.Fprintf(os.Stderr, "bench: warning: %s did not repeat exactly across %d passes; cell marked unstable\n", name, ladderPasses)
	}

	if err := plannedHitProbe(sets["small"], seed, sockDir, tally, m); err != nil {
		return nil, err
	}
	if err := autotuneProbe(sets["large"], seed, sockDir, staticFor, autoFor, tally, m); err != nil {
		return nil, err
	}
	return unstable, nil
}
