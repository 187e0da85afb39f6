// Command prisma-trace analyzes span files: the I/O trace the middleware
// records (Options.TraceFile / prisma-server -trace, one device-read span per
// device read) and lifecycle span files (Options.SpanFile). It prints
// latency/throughput summaries and a request-concurrency timeline of a
// file's reads, and a critical-path latency attribution of a span file.
//
// Usage:
//
//	prisma-trace summary io.trace
//	prisma-trace -bucket 100ms timeline io.trace
//	prisma-trace -consumers 4 attribute spans.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/obs"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prisma-trace [flags] summary|timeline|attribute FILE

commands:
  summary    latency and throughput statistics of the file's reads
  timeline   per-bucket read concurrency (-bucket controls granularity)
  attribute  critical-path latency breakdown from a lifecycle span file
             (-consumers sets the denominator)`)
	os.Exit(2)
}

func main() {
	bucket := flag.Duration("bucket", 100*time.Millisecond, "timeline bucket width")
	consumers := flag.Int("consumers", 1, "consumer thread/process count for attribute")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 2 {
		usage()
	}
	cmd, path := flag.Arg(0), flag.Arg(1)
	spans := readSpans(path)

	switch cmd {
	case "summary":
		s := summarize(reads(spans))
		fmt.Printf("events:        %d (%d errors)\n", s.Events, s.Errors)
		fmt.Printf("bytes:         %.1f MiB\n", float64(s.Bytes)/(1<<20))
		fmt.Printf("duration:      %v\n", s.Duration.Round(time.Millisecond))
		fmt.Printf("throughput:    %.0f reads/s\n", s.ReadsPerSec)
		fmt.Printf("latency mean:  %v\n", s.MeanLatency.Round(time.Microsecond))
		fmt.Printf("latency p50:   %v\n", s.P50.Round(time.Microsecond))
		fmt.Printf("latency p95:   %v\n", s.P95.Round(time.Microsecond))
		fmt.Printf("latency p99:   %v\n", s.P99.Round(time.Microsecond))
		fmt.Printf("latency max:   %v\n", s.MaxLatency.Round(time.Microsecond))

	case "timeline":
		depth := concurrencyTimeline(reads(spans), *bucket)
		max := 1
		for _, d := range depth {
			if d > max {
				max = d
			}
		}
		for i, d := range depth {
			bar := strings.Repeat("█", d*40/max)
			fmt.Printf("%10v  %4d  %s\n", time.Duration(i)*(*bucket), d, bar)
		}

	case "attribute":
		attribute(path, spans, *consumers)

	default:
		usage()
	}
}

// readSpans parses the span file at path.
func readSpans(path string) []obs.Span {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		fatal(err)
	}
	return spans
}

// reads keeps a file's read spans: the I/O trace's device reads, a
// lifecycle span file's producer reads, and lines with no stage (reads of
// I/O traces written before the trace was a span file; obs.ReadSpans
// dropped their metadata lookups).
func reads(spans []obs.Span) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		switch s.Stage {
		case obs.StageDeviceRead, obs.StageStorageRead, "":
			out = append(out, s)
		}
	}
	return out
}

// summary aggregates a file's reads.
type summary struct {
	Events        int
	Errors        int
	Bytes         int64
	Duration      time.Duration // last completion − first start
	ReadsPerSec   float64
	MeanLatency   time.Duration
	P50, P95, P99 time.Duration
	MaxLatency    time.Duration
}

func summarize(spans []obs.Span) summary {
	s := summary{Events: len(spans)}
	if s.Events == 0 {
		return s
	}
	lat := make([]time.Duration, 0, len(spans))
	var sum time.Duration
	first, last := spans[0].At, time.Duration(0)
	for _, sp := range spans {
		if sp.Error != "" {
			s.Errors++
		}
		s.Bytes += sp.Size
		lat = append(lat, sp.Latency)
		sum += sp.Latency
		first = min(first, sp.At)
		last = max(last, sp.End())
		s.MaxLatency = max(s.MaxLatency, sp.Latency)
	}
	s.Duration = last - first
	if s.Duration > 0 {
		s.ReadsPerSec = float64(s.Events) / s.Duration.Seconds()
	}
	s.MeanLatency = sum / time.Duration(s.Events)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		return lat[min(max(int(p*float64(len(lat)))-1, 0), len(lat)-1)]
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// concurrencyTimeline reports, per bucket of the given width, how many reads
// overlap it — a quick view of the workload's parallelism.
func concurrencyTimeline(spans []obs.Span, bucket time.Duration) []int {
	if bucket <= 0 || len(spans) == 0 {
		return nil
	}
	var end time.Duration
	for _, sp := range spans {
		end = max(end, sp.End())
	}
	depth := make([]int, int(end/bucket)+1)
	for _, sp := range spans {
		for b := int(sp.At / bucket); b <= int(sp.End()/bucket) && b < len(depth); b++ {
			depth[b]++
		}
	}
	return depth
}

// attribute prints the critical-path latency breakdown of a lifecycle span
// file.
func attribute(path string, spans []obs.Span, consumers int) {
	if len(spans) == 0 {
		fatal(fmt.Errorf("%s: no spans", path))
	}
	a := obs.AttributeSpans(spans, consumers)
	byStage := map[string]int{}
	for _, s := range spans {
		byStage[s.Stage]++
	}
	fmt.Printf("spans:             %d", len(spans))
	for _, st := range []string{
		obs.StageFIFOPop, obs.StageStorageRead, obs.StageBufferPark,
		obs.StageConsumerWait, obs.StageIPC, obs.StageIPCServe,
		obs.StageCacheHit, obs.StageCacheMiss, obs.StageCacheCoalesce,
		obs.StageTierPromote, obs.StageTierWarm, obs.StageDecompress,
		obs.StageTenantThrottle, obs.StageTenantShed,
	} {
		if n := byStage[st]; n > 0 {
			fmt.Printf(" %s=%d", st, n)
		}
	}
	fmt.Println()
	fmt.Printf("window:            %v x %d consumer(s)\n", a.Window.Round(time.Microsecond), a.Consumers)
	fmt.Printf("storage share:     %5.1f%%  (consumer wait overlapping backend reads)\n", a.StorageShare*100)
	fmt.Printf("buffer-full share: %5.1f%%  (reads started late: producer parked on full buffer)\n", a.BufferFullShare*100)
	fmt.Printf("cache share:       %5.1f%%  (coalesced waits on another read's backend fetch)\n", a.CacheShare*100)
	fmt.Printf("tier share:        %5.1f%%  (fast-tier promotion, warming, and decode)\n", a.TierShare*100)
	fmt.Printf("throttle share:    %5.1f%%  (tenant admission-gate waits)\n", a.ThrottleShare*100)
	fmt.Printf("ipc share:         %5.1f%%  (socket transport and framing)\n", a.IPCShare*100)
	fmt.Printf("consumer share:    %5.1f%%  (data plane kept up)\n", a.ConsumerShare*100)
	fmt.Printf("consumer wait:     %v (storage %v, buffer-full %v)\n",
		a.ConsumerWait.Round(time.Microsecond), a.StorageWait.Round(time.Microsecond), a.BufferWait.Round(time.Microsecond))
	fmt.Printf("cache wait:        %v, tier wait: %v, throttle wait: %v\n",
		a.CacheWait.Round(time.Microsecond), a.TierWait.Round(time.Microsecond), a.ThrottleWait.Round(time.Microsecond))
	fmt.Printf("storage busy:      %v, producer park: %v\n",
		a.StorageBusy.Round(time.Microsecond), a.ProducerPark.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "prisma-trace: %v\n", err)
	os.Exit(1)
}
