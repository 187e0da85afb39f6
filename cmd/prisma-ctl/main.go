// Command prisma-ctl is the control-plane CLI for a running prisma-server:
// it inspects stage statistics and adjusts the tuning knobs over the same
// UNIX socket the data path uses. Every knob goes through one subcommand,
// set, which forwards its KEY=VALUE arguments unparsed to the server's
// control table.
//
// Usage:
//
//	prisma-ctl -socket /tmp/prisma.sock stats
//	prisma-ctl -socket /tmp/prisma.sock ping
//	prisma-ctl -socket /tmp/prisma.sock set producers=4 buffer=256
//	prisma-ctl -socket /tmp/prisma.sock set tenant.jobA.weight=2
//	prisma-ctl -socket /tmp/prisma.sock plan epoch0.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prisma-ctl [-socket PATH] COMMAND [ARGS]

commands:
  stats                 print the stage's monitoring snapshot
  ping                  probe server liveness
  set KEY=VALUE...      set knobs through the server's control table, all or
                        none: producers=N (thread count t), buffer=N
                        (capacity N), sampling=P (trace probability in
                        [0, 1]), tenant.NAME.weight=W, tenant.NAME.bytes=B
                        (byte budget in bytes/s)
  decisions             print the autotuner's decision audit log
  plan FILE             submit an epoch plan (newline-separated filenames)
  epochs                list retained plan epochs and their lifecycle state
  cancel-epoch ID       cancel a plan epoch (drops its queued/buffered samples)
  tenants               print per-tenant QoS statistics (tenancy-enabled servers)
  tiering               print fast-tier statistics (tiering-enabled servers)
  bundle [FILE]         capture the one-shot diagnostic bundle (stats,
                        attribution, tenants with SLO states, epochs, the
                        decision log, recent spans) as JSON to FILE or stdout
  watch [INTERVAL]      poll stats and print derived rates (default 1s)`)
	os.Exit(2)
}

func main() {
	socket := flag.String("socket", "/tmp/prisma.sock", "PRISMA server socket")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	client, err := prisma.Dial(*socket)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	switch args[0] {
	case "stats":
		s, err := client.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reads:            %d\n", s.Reads)
		fmt.Printf("buffer hits:      %d\n", s.Hits)
		fmt.Printf("bypasses:         %d\n", s.Bypasses)
		fmt.Printf("errors:           %d\n", s.Errors)
		fmt.Printf("prefetched files: %d\n", s.PrefetchedFiles)
		fmt.Printf("read errors:      %d\n", s.ReadErrors)
		fmt.Printf("queue length:     %d\n", s.QueueLen)
		fmt.Printf("producers (t):    %d\n", s.Producers)
		fmt.Printf("buffer (len/N):   %d/%d\n", s.BufferLen, s.BufferCapacity)
		fmt.Printf("buffer shards:    %d\n", s.BufferShards)
		fmt.Printf("consumer wait:    %v\n", s.ConsumerWait)
		fmt.Printf("producer wait:    %v\n", s.ProducerWait)
		if s.BreakerState != "" {
			fmt.Printf("retries:          %d\n", s.Retries)
			fmt.Printf("breaker:          %s (%d opens)\n", s.BreakerState, s.BreakerOpens)
			fmt.Printf("degraded:         %v\n", s.Degraded)
		}
		if s.PoolEnabled {
			fmt.Printf("buffer pool:      %d leases, %.0f%% recycled, %d outstanding, %d free (%.1f MiB)\n",
				s.PoolGets, s.PoolHitRate*100, s.PoolOutstanding,
				s.PoolFreeBuffers, float64(s.PoolFreeBytes)/(1<<20))
		}
		if s.CacheEnabled {
			fmt.Printf("shared cache:     %d hits (%d joined, %v waiting) / %d device reads, %d residents (%.1f MiB), %d evictions\n",
				s.CacheHits, s.CacheWaits, s.CacheWaitTime, s.CacheDeviceReads, s.CacheResidents,
				float64(s.CacheUsedBytes)/(1<<20), s.CacheEvictions)
		}
		if s.TierEnabled {
			fmt.Printf("fast tier:        %d hits / %d slow reads, %d residents (%d encoded, %.1f/%.1f MiB), %v promoting, %v decoding\n",
				s.TierFastHits, s.TierSlowReads, s.TierResidents, s.TierEncoded,
				float64(s.TierUsedBytes)/(1<<20), float64(s.TierCapacityBytes)/(1<<20),
				s.TierPromoteTime, s.TierDecodeTime)
		}
		fmt.Printf("socket read-ahead: %d samples pushed, %d wasted\n", s.ReadAheadSamples, s.ReadAheadWasted)
		fmt.Printf("socket payloads:  %d in the arena, %d inline\n", s.ArenaPayloads, s.InlinePayloads)
		if s.PoolArenaBytes > 0 {
			fmt.Printf("shared arena:     %.1f of %.1f MiB carved\n", float64(s.PoolArenaCarvedBytes)/(1<<20), float64(s.PoolArenaBytes)/(1<<20))
		}

	case "ping":
		if err := client.Ping(); err != nil {
			fatal(err)
		}
		fmt.Println("ok")

	case "set":
		if len(args) < 2 {
			usage()
		}
		if err := client.Control(args[1:]...); err != nil {
			fatal(err)
		}
		fmt.Printf("applied %s\n", strings.Join(args[1:], " "))

	case "decisions":
		blob, err := client.Decisions()
		if err != nil {
			fatal(err)
		}
		printDecisions(blob)

	case "watch":
		interval := time.Second
		if len(args) > 1 {
			d, err := time.ParseDuration(args[1])
			if err != nil || d <= 0 {
				fatal(fmt.Errorf("bad watch interval %q", args[1]))
			}
			interval = d
		}
		watch(client, interval)

	case "plan":
		if len(args) < 2 {
			usage()
		}
		names, err := readPlan(args[1])
		if err != nil {
			fatal(err)
		}
		id, enqueued, err := client.SubmitEpoch(names)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("submitted epoch %d with %d files\n", id, enqueued)

	case "epochs":
		eps, err := client.Epochs()
		if err != nil {
			fatal(err)
		}
		if len(eps) == 0 {
			fmt.Println("no epochs submitted yet")
			return
		}
		fmt.Printf("%6s %-11s %8s %8s %8s %10s %8s\n",
			"epoch", "state", "total", "enqueued", "claimed", "delivered", "dropped")
		for _, e := range eps {
			fmt.Printf("%6d %-11s %8d %8d %8d %10d %8d\n",
				e.ID, e.State, e.Total, e.Enqueued, e.Claimed, e.Delivered, e.Dropped)
		}

	case "tenants":
		snap, err := client.Tenants()
		if err != nil {
			fatal(err)
		}
		state := "ok"
		if snap.Overloaded {
			state = "OVERLOADED (shedding)"
		}
		fmt.Printf("capacity: %.0f reads/s, state: %s\n", snap.Capacity, state)
		fmt.Printf("%-16s %6s %10s %10s %10s %8s %12s %7s %12s %5s %-8s\n",
			"tenant", "weight", "grant/s", "demand/s", "admitted", "shed", "bytes", "errors", "budget B/s", "debt", "slo")
		for _, ts := range snap.Tenants {
			budget := "-"
			if ts.ByteBudget > 0 {
				budget = strconv.FormatFloat(ts.ByteBudget, 'f', 0, 64)
			}
			debt := ""
			if ts.InDebt {
				debt = "yes"
			}
			slo := "-"
			if ts.HasSLO {
				slo = ts.SLOState
				if ts.SLOBoosted {
					slo += "*" // breach weight boost in force
				}
			}
			fmt.Printf("%-16s %6.1f %10.1f %10.1f %10d %8d %12d %7d %12s %5s %-8s\n",
				ts.Name, ts.Weight, ts.GrantedRate, ts.MeasuredRate,
				ts.Admitted, ts.Shed, ts.BytesRead, ts.Errors, budget, debt, slo)
		}

	case "tiering":
		s, err := client.Stats()
		if err != nil {
			fatal(err)
		}
		if !s.TierEnabled {
			fatal(fmt.Errorf("tiering not enabled on this server"))
		}
		fmt.Printf("capacity:            %.1f MiB\n", float64(s.TierCapacityBytes)/(1<<20))
		fmt.Printf("used (physical):     %.1f MiB\n", float64(s.TierUsedBytes)/(1<<20))
		fmt.Printf("held (logical):      %.1f MiB\n", float64(s.TierLogicalBytes)/(1<<20))
		fmt.Printf("residents:           %d (%d encoded)\n", s.TierResidents, s.TierEncoded)
		fmt.Printf("fast hits:           %d\n", s.TierFastHits)
		fmt.Printf("slow reads:          %d\n", s.TierSlowReads)
		if total := s.TierFastHits + s.TierSlowReads; total > 0 {
			fmt.Printf("hit rate:            %.1f%%\n", 100*float64(s.TierFastHits)/float64(total))
		}
		fmt.Printf("promotions:          %d\n", s.TierPromotions)
		fmt.Printf("evictions:           %d\n", s.TierEvictions)
		fmt.Printf("declined:            %d (no resident was colder)\n", s.TierDeclined)
		fmt.Printf("prefetch promotions: %d\n", s.TierPrefetchPromotions)
		fmt.Printf("prefetch skips:      %d\n", s.TierPrefetchSkips)
		fmt.Printf("tracked names:       %d (%d decay sweeps)\n", s.TierTrackedNames, s.TierAccessDecays)
		fmt.Printf("promote time:        %v\n", s.TierPromoteTime)
		fmt.Printf("decode time:         %v\n", s.TierDecodeTime)

	case "bundle":
		blob, err := client.Bundle()
		if err != nil {
			fatal(err)
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, blob, "", "  "); err != nil {
			fatal(fmt.Errorf("decode bundle: %w", err))
		}
		pretty.WriteByte('\n')
		if len(args) > 1 {
			if err := os.WriteFile(args[1], pretty.Bytes(), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("bundle written to %s (%d bytes)\n", args[1], pretty.Len())
		} else {
			os.Stdout.Write(pretty.Bytes())
		}

	case "cancel-epoch":
		if len(args) < 2 {
			usage()
		}
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad epoch id %q", args[1]))
		}
		removed, err := client.CancelEpoch(prisma.EpochID(n))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cancelled epoch %d (%d pending entries removed)\n", n, removed)

	default:
		usage()
	}
}

// decisionRecord mirrors control.DecisionRecord's JSON shape (the ctl
// binary links only the public prisma package; the audit log arrives as
// raw JSON over the socket).
type decisionRecord struct {
	At     time.Duration `json:"at"`
	Tick   int64         `json:"tick"`
	Rule   string        `json:"rule"`
	Before struct {
		Producers      int `json:"Producers"`
		BufferCapacity int `json:"BufferCapacity"`
	} `json:"before"`
	After struct {
		Producers      int `json:"Producers"`
		BufferCapacity int `json:"BufferCapacity"`
	} `json:"after"`
	Inputs struct {
		Starvation   float64 `json:"starvation"`
		ProducerIdle float64 `json:"producer_idle"`
		TakesPerSec  float64 `json:"takes_per_sec"`
		QueueLen     int     `json:"queue_len"`
		Degraded     bool    `json:"degraded"`
	} `json:"inputs"`
	Attrib struct {
		StorageShare    float64 `json:"storage_share"`
		BufferFullShare float64 `json:"buffer_full_share"`
		ConsumerShare   float64 `json:"consumer_share"`
	} `json:"attribution"`
}

// printDecisions renders the audit log as a table, newest last.
func printDecisions(blob []byte) {
	var recs []decisionRecord
	if err := json.Unmarshal(blob, &recs); err != nil {
		fatal(fmt.Errorf("decode decisions: %w", err))
	}
	if len(recs) == 0 {
		fmt.Println("no decisions recorded yet")
		return
	}
	fmt.Printf("%-10s %6s %-18s %9s %9s %7s %7s %6s %6s %6s\n",
		"at", "tick", "rule", "t", "N", "starv", "idle", "stor%", "buf%", "cons%")
	for _, r := range recs {
		fmt.Printf("%-10s %6d %-18s %4d->%-4d %4d->%-4d %7.2f %7.2f %6.1f %6.1f %6.1f\n",
			r.At.Round(time.Millisecond), r.Tick, r.Rule,
			r.Before.Producers, r.After.Producers,
			r.Before.BufferCapacity, r.After.BufferCapacity,
			r.Inputs.Starvation, r.Inputs.ProducerIdle,
			r.Attrib.StorageShare*100, r.Attrib.BufferFullShare*100, r.Attrib.ConsumerShare*100)
	}
}

// watch polls the stage and prints per-interval rates until interrupted.
func watch(client *prisma.Client, interval time.Duration) {
	prev, err := client.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %10s %10s %10s %8s %8s %10s\n",
		"time", "reads/s", "hits/s", "bypass/s", "t", "N", "buffered")
	start := time.Now()
	for range time.Tick(interval) {
		cur, err := client.Stats()
		if err != nil {
			fatal(err)
		}
		secs := interval.Seconds()
		fmt.Printf("%-10s %10.0f %10.0f %10.0f %8d %8d %10d\n",
			time.Since(start).Round(time.Second),
			float64(cur.Reads-prev.Reads)/secs,
			float64(cur.Hits-prev.Hits)/secs,
			float64(cur.Bypasses-prev.Bypasses)/secs,
			cur.Producers, cur.BufferCapacity, cur.BufferLen)
		prev = cur
	}
}

func readPlan(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			names = append(names, line)
		}
	}
	return names, sc.Err()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "prisma-ctl: %v\n", err)
	os.Exit(1)
}
