package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
)

// Every read of a public prisma.Stats / Attribution field and of an OS or
// runtime counter is in this file, so a renamed field is a one-line fix.

// snapshot is one reading of every counter the benchmark takes at a window
// edge.
type snapshot struct {
	at    time.Time
	stats prisma.Stats
	procCounters

	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	gcCycles   uint32

	peakRSSMiB float64 // VmHWM: high-water mark of resident memory since the process started
}

// procCounters is the cheap subset (no stop-the-world): rusage and
// /proc/self/io. The probe ladder takes it around every pass.
type procCounters struct {
	userCPU, sysCPU time.Duration
	ctxSwitches     int64
	syscr, syscw    int64 // read- and write-class syscalls
}

func (c procCounters) cpu() time.Duration { return c.userCPU + c.sysCPU }

func readProcCounters() procCounters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	c := procCounters{
		userCPU:     time.Duration(ru.Utime.Nano()),
		sysCPU:      time.Duration(ru.Stime.Nano()),
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
	}
	c.syscr, c.syscw = readProcIO()
	return c
}

// readProcIO parses syscr/syscw from /proc/self/io. They count read- and
// write-class calls only; open/fstat/close are not countable from outside
// the program and show up in the CPU cells instead. A missing file (not
// Linux, or a restricted /proc) reads as zeros.
func readProcIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		key, val, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(string(val), 10, 64)
		switch string(key) {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// procIOSelfCost is how many read-class calls one readProcIO adds to the
// next reading, measured rather than assumed so exact syscall cells stay
// exact across Go versions.
func procIOSelfCost() int64 {
	a, _ := readProcIO()
	b, _ := readProcIO()
	return b - a
}

func takeSnapshot(p *prisma.Prisma) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:           time.Now(),
		stats:        p.Stats(),
		procCounters: readProcCounters(),
		mallocs:      ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		gcPause:      time.Duration(ms.PauseTotalNs),
		gcCycles:     ms.NumGC,
		peakRSSMiB:   readPeakRSSMiB(),
	}
}

func readPeakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(string(fields[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents) - 1 // the directory handle ReadDir itself holds
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerCounters turns the counter deltas over one window into per-layer
// cells. samples is the number of delivered reads, epochs the number of
// whole epochs in the window.
func layerCounters(m map[string]float64, before, after snapshot, samples, epochs int64) {
	n := float64(samples)
	a, b := after.stats, before.stats
	wall := after.at.Sub(before.at).Seconds()

	m["storage.busy_us_per_sample"] = ratio(us(a.StorageBusy-b.StorageBusy), n)
	m["storage.retries"] = float64(a.Retries - b.Retries)

	cacheLookups := float64(a.CacheHits - b.CacheHits + a.CacheMisses - b.CacheMisses)
	m["sharedcache.hit_ratio"] = ratio(float64(a.CacheHits-b.CacheHits), cacheLookups)
	m["sharedcache.evictions_per_sample"] = ratio(float64(a.CacheEvictions-b.CacheEvictions), n)
	m["sharedcache.device_reads_per_sample"] = ratio(float64(a.CacheDeviceReads-b.CacheDeviceReads), n)
	m["sharedcache.coalesce_wait_us_per_sample"] = ratio(us(a.CacheWaitTime-b.CacheWaitTime), n)

	tierHits := float64(a.TierFastHits - b.TierFastHits)
	tierPromotions := float64(a.TierPromotions - b.TierPromotions)
	m["tiering.hit_ratio"] = ratio(tierHits, tierHits+float64(a.TierSlowReads-b.TierSlowReads))
	m["tiering.promotions_per_sample"] = ratio(tierPromotions, n)
	m["tiering.evictions_per_sample"] = ratio(float64(a.TierEvictions-b.TierEvictions), n)
	m["tiering.decode_us_per_hit"] = ratio(us(a.TierDecodeTime-b.TierDecodeTime), tierHits)
	m["tiering.promote_us_per_promotion"] = ratio(us(a.TierPromoteTime-b.TierPromoteTime), tierPromotions)
	m["tiering.stored_per_logical_byte"] = ratio(float64(a.TierUsedBytes), float64(a.TierLogicalBytes))
	m["tiering.warm_promotions_per_epoch"] = ratio(float64(a.TierPrefetchPromotions-b.TierPrefetchPromotions), float64(epochs))

	reads := float64(a.Reads - b.Reads)
	m["core.hit_ratio"] = ratio(float64(a.Hits-b.Hits), reads)
	m["core.bypass_ratio"] = ratio(float64(a.Bypasses-b.Bypasses), reads)
	m["core.consumer_wait_us_per_sample"] = ratio(us(a.ConsumerWait-b.ConsumerWait), n)
	m["core.consumer_wait_storage_us_per_sample"] = ratio(us(a.ConsumerWaitStorage-b.ConsumerWaitStorage), n)
	m["core.consumer_wait_buffer_full_us_per_sample"] = ratio(us(a.ConsumerWaitBufferFull-b.ConsumerWaitBufferFull), n)
	m["core.producer_wait_us_per_sample"] = ratio(us(a.ProducerWait-b.ProducerWait), n)

	// PoolHitRate is cumulative since Open; recover the window's rate from
	// the lease counts at both edges.
	gets := float64(a.PoolGets - b.PoolGets)
	m["mempool.hit_rate"] = ratio(a.PoolHitRate*float64(a.PoolGets)-b.PoolHitRate*float64(b.PoolGets), gets)
	m["mempool.outstanding_end"] = float64(a.PoolOutstanding)

	m["tenancy.throttle_wait_us_per_sample"] = ratio(us(a.ThrottleWait-b.ThrottleWait), n)
	m["tenancy.shed"] = float64(a.TenantsShed - b.TenantsShed)

	m["proc.user_cpu_us_per_sample"] = ratio(us(after.userCPU-before.userCPU), n)
	m["proc.sys_cpu_us_per_sample"] = ratio(us(after.sysCPU-before.sysCPU), n)
	m["proc.rd_syscalls_per_sample"] = ratio(float64(after.syscr-before.syscr), n)
	m["proc.wr_syscalls_per_sample"] = ratio(float64(after.syscw-before.syscw), n)
	m["proc.ctx_switches_per_sample"] = ratio(float64(after.ctxSwitches-before.ctxSwitches), n)
	m["proc.allocs_per_sample"] = ratio(float64(after.mallocs-before.mallocs), n)
	m["proc.alloc_bytes_per_sample"] = ratio(float64(after.allocBytes-before.allocBytes), n)
	m["proc.gc_pause_ms_per_s"] = ratio(float64(after.gcPause-before.gcPause)/1e6, wall)
	m["proc.gc_cycles_per_s"] = ratio(float64(after.gcCycles-before.gcCycles), wall)
}

// attributionCells records the program's own Attribution view, cumulative
// since Open, so a later issue can reconcile it with the probe ladder. Its
// IPCShare is always 0 through this API and is not recorded.
func attributionCells(m map[string]float64, p *prisma.Prisma, consumers int) {
	a := p.Attribution(consumers)
	m["obs.attr_storage_share"] = a.StorageShare
	m["obs.attr_buffer_full_share"] = a.BufferFullShare
	m["obs.attr_cache_share"] = a.CacheShare
	m["obs.attr_tier_share"] = a.TierShare
	m["obs.attr_throttle_share"] = a.ThrottleShare
	m["obs.attr_consumer_share"] = a.ConsumerShare
}

// checkWindow asserts the invariants a window must leave behind and
// returns one message per violation. plannedReads is how many plan entries
// the clients read in the window.
func checkWindow(before, after snapshot, plannedReads int64, chain bool) []string {
	var bad []string
	a, b := after.stats, before.stats
	if d := a.PlanDelivered - b.PlanDelivered; d != plannedReads {
		bad = append(bad, fmt.Sprintf("PlanDelivered moved by %d for %d planned reads", d, plannedReads))
	}
	if d := a.Errors - b.Errors; d != 0 {
		bad = append(bad, fmt.Sprintf("Stats.Errors moved by %d", d))
	}
	if a.TenantsShed != 0 {
		bad = append(bad, fmt.Sprintf("TenantsShed = %d", a.TenantsShed))
	}
	// The cache and the tier hold pooled buffers by design, so only the
	// plain chain must return every lease between epochs.
	if !chain && a.PoolOutstanding != 0 {
		bad = append(bad, fmt.Sprintf("PoolOutstanding = %d between epochs", a.PoolOutstanding))
	}
	return bad
}
