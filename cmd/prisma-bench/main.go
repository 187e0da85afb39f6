// Command prisma-bench regenerates the paper's evaluation (Figures 2-4)
// and the repository's ablations in the deterministic virtual-time
// simulator, printing the tables that EXPERIMENTS.md records.
//
// Usage:
//
//	prisma-bench [flags] fig2|fig3|fig4|ablation|distrib|cluster|chaos|buffer-shards|attribution|alloc|tiering|all
//
// Scale note: -scale 1 simulates the full 1.28 M-image ImageNet; the
// default 1/128 preserves every shape in a fraction of the event count.
// Reported "paper-scale" numbers extrapolate by 1/scale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/chaos"
	"github.com/dsrhaslab/prisma-go/internal/distrib"
	"github.com/dsrhaslab/prisma-go/internal/experiments"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0, "dataset scale in (0,1]; 0 = calibration default (1/128)")
		epochs   = flag.Int("epochs", 0, "training epochs per run; 0 = paper's 10")
		runs     = flag.Int("runs", 0, "runs per configuration; 0 = paper's 5")
		seed     = flag.Int64("seed", 0, "base seed; 0 = calibration default")
		models   = flag.String("models", "", "comma-free model filter: lenet|alexnet|resnet50 (default: figure-specific)")
		quiet    = flag.Bool("quiet", false, "suppress per-cell progress lines")
		par      = flag.Int("parallelism", 0, "concurrent simulations (0 = GOMAXPROCS); results are identical at any value")
		format   = flag.String("format", "table", "output format: table | csv | json")
		deadline = flag.Duration("timeout", 0, "abort after this wall-clock duration (0 = none)")
		chaosN   = flag.Int("chaos-schedules", 100, "seeded fault schedules for the chaos target")
		clNodes  = flag.Int("cluster-nodes", 4, "node count for the cluster target")
		shardKs  = flag.String("shards", "1,2,4,8,16", "comma-separated shard counts for the buffer-shards target")
		shardCs  = flag.String("consumers", "1,2,4,8,16", "comma-separated consumer counts for the buffer-shards target")
		shardOps = flag.Int("samples-per-consumer", 200, "samples each consumer moves in the buffer-shards target")
		spansOut = flag.String("spans", "", "write the attribution target's storage-bound cell spans to this JSONL file (prisma-trace attribute reads it)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: prisma-bench [flags] fig2|fig3|fig4|ablation|distrib|cluster|chaos|buffer-shards|attribution|alloc|tiering|all")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cal := experiments.Default()
	if *scale > 0 {
		if *scale > 1 {
			log.Fatal("prisma-bench: -scale must be in (0, 1]")
		}
		cal.Scale = *scale
	}
	if *epochs > 0 {
		cal.Epochs = *epochs
	}
	if *runs > 0 {
		cal.Runs = *runs
	}
	if *seed != 0 {
		cal.Seed = *seed
	}
	cal.Parallelism = *par

	report := func(s string) { log.Println(s) }
	if *quiet {
		report = nil
	}
	if *deadline > 0 {
		go func() {
			time.Sleep(*deadline)
			log.Fatal("prisma-bench: timeout exceeded")
		}()
	}

	figModels := train.Models()
	if *models != "" {
		m, err := train.ModelByName(*models)
		if err != nil {
			log.Fatalf("prisma-bench: %v", err)
		}
		figModels = []train.Model{m}
	}

	if *format != "table" && *format != "csv" && *format != "json" {
		log.Fatalf("prisma-bench: unknown format %q", *format)
	}
	bundle := experiments.Results{Scale: cal.Scale, Epochs: cal.Epochs, Runs: cal.Runs, Seed: cal.Seed}

	start := time.Now()
	what := flag.Arg(0)
	if what == "fig2" || what == "all" {
		cells, err := experiments.RunFig2(cal, figModels, experiments.BatchSizes(), report)
		if err != nil {
			log.Fatalf("prisma-bench: fig2: %v", err)
		}
		bundle.Fig2 = cells
		switch *format {
		case "table":
			fmt.Println()
			if err := experiments.RenderFig2(os.Stdout, cells); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		case "csv":
			if err := experiments.WriteFig2CSV(os.Stdout, cells); err != nil {
				log.Fatal(err)
			}
		}
	}
	if what == "fig3" || what == "all" {
		series, err := experiments.RunFig3(cal, figModels, 256, report)
		if err != nil {
			log.Fatalf("prisma-bench: fig3: %v", err)
		}
		bundle.Fig3 = series
		switch *format {
		case "table":
			fmt.Println()
			if err := experiments.RenderFig3(os.Stdout, series); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		case "csv":
			if err := experiments.WriteFig3CSV(os.Stdout, series); err != nil {
				log.Fatal(err)
			}
		}
	}
	if what == "fig4" || what == "all" {
		fig4Models := []train.Model{train.LeNet(), train.AlexNet()}
		if *models != "" {
			fig4Models = figModels
		}
		cells, err := experiments.RunFig4(cal, fig4Models, 256, experiments.WorkerCounts(), report)
		if err != nil {
			log.Fatalf("prisma-bench: fig4: %v", err)
		}
		bundle.Fig4 = cells
		switch *format {
		case "table":
			fmt.Println()
			if err := experiments.RenderFig4(os.Stdout, cells); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		case "csv":
			if err := experiments.WriteFig4CSV(os.Stdout, cells); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *format == "json" {
		if err := bundle.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if what == "ablation" || what == "all" {
		runAblations(cal, report)
	}
	if what == "distrib" || what == "all" {
		runDistrib()
	}
	if what == "cluster" || what == "all" {
		runCluster(*clNodes)
	}
	if what == "chaos" || what == "all" {
		runChaos(cal.Seed, *chaosN)
	}
	if what == "buffer-shards" {
		runShardSweep(cal, *shardKs, *shardCs, *shardOps, report)
	}
	if what == "attribution" || what == "all" {
		runAttribution(*spansOut, report)
	}
	if what == "alloc" {
		runAlloc(*shardCs, report)
	}
	if what == "tiering" || what == "all" {
		runTiering(report)
	}
	if what == "batch" || what == "all" {
		runBatch(report)
	}
	switch what {
	case "fig2", "fig3", "fig4", "ablation", "distrib", "cluster", "chaos", "buffer-shards", "attribution", "alloc", "tiering", "batch", "all":
	default:
		log.Fatalf("prisma-bench: unknown target %q", what)
	}
	log.Printf("prisma-bench: done in %v (scale %.5f, %d epochs, %d runs)",
		time.Since(start).Round(time.Millisecond), cal.Scale, cal.Epochs, cal.Runs)
}

// runShardSweep reproduces the consumer-scaling curve of the shared-buffer
// synchronization bottleneck (§V-B) at each shard count K: with K=1 every
// buffer operation serializes behind one lock; sharding restores scaling.
func runShardSweep(cal experiments.Calibration, shardCSV, consumerCSV string, perConsumer int, report func(string)) {
	shards, err := parseIntCSV(shardCSV)
	if err != nil {
		log.Fatalf("prisma-bench: -shards: %v", err)
	}
	consumers, err := parseIntCSV(consumerCSV)
	if err != nil {
		log.Fatalf("prisma-bench: -consumers: %v", err)
	}
	rows, err := experiments.RunShardSweep(cal, shards, consumers, perConsumer, report)
	if err != nil {
		log.Fatalf("prisma-bench: buffer-shards: %v", err)
	}
	fmt.Println()
	title := fmt.Sprintf("Buffer shards — consumer scaling at serialized access cost %v (the §V-B bottleneck)",
		cal.TorchPrismaStage.BufferAccessCost)
	if err := experiments.RenderShardSweep(os.Stdout, title, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runAttribution runs the canonical latency-attribution cells (the same
// dataset made storage-bound, buffer-capacity-bound, and balanced by the
// (t, N, consume) setting) and optionally dumps the storage-bound cell's
// span stream for offline analysis with prisma-trace attribute.
func runAttribution(spansOut string, report func(string)) {
	cells, err := experiments.RunAttributionDemo(report)
	if err != nil {
		log.Fatalf("prisma-bench: attribution: %v", err)
	}
	fmt.Println()
	if err := experiments.RenderAttribution(os.Stdout,
		"Latency attribution — where one consumer's epoch goes at each (t, N) setting", cells); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if spansOut != "" {
		f, err := os.Create(spansOut)
		if err != nil {
			log.Fatalf("prisma-bench: attribution: %v", err)
		}
		if err := obs.WriteSpans(f, cells[0].Spans); err != nil {
			f.Close()
			log.Fatalf("prisma-bench: attribution: write spans: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("prisma-bench: attribution: %v", err)
		}
		log.Printf("prisma-bench: wrote %d spans of cell %q to %s", len(cells[0].Spans), cells[0].Label, spansOut)
	}
}

// runAlloc measures the hot-path allocation sweep (real time, not sim:
// allocations are a property of the real runtime) — pooled vs unpooled at
// each consumer count. results_alloc.txt records this target's output; the
// CI gate (TestAllocRegressionGate) enforces the pooled budget.
func runAlloc(consumerCSV string, report func(string)) {
	consumers, err := parseIntCSV(consumerCSV)
	if err != nil {
		log.Fatalf("prisma-bench: -consumers: %v", err)
	}
	rows := experiments.RunAllocSweep(consumers, report)
	fmt.Println()
	if err := experiments.RenderAllocSweep(os.Stdout,
		"Hot-path allocations — full pipeline per delivered 64 KiB sample, pooled vs unpooled", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runBatch runs the plan-aware read-coalescing comparison (real time, not
// sim: the cell counts backend requests, a property of the live pipeline)
// and asserts the coalescer's economy claim so CI can run this target as a
// gate: at batch budget K the coalesced variant issues at least K-fold
// fewer backend requests than the per-sample baseline while moving exactly
// the same bytes, with no per-sample fallbacks.
func runBatch(report func(string)) {
	cfg := experiments.BatchCompareConfig{} // defaults: 64 records, K=4
	per, batched, err := experiments.RunBatchCompare(cfg, report)
	if err != nil {
		log.Fatalf("prisma-bench: batch: %v", err)
	}
	cfg = experiments.BatchCompareConfig{}.WithDefaults()
	if per.Samples != batched.Samples {
		log.Fatalf("prisma-bench: batch: delivered %d vs %d samples", per.Samples, batched.Samples)
	}
	if batched.BackendBytes != per.BackendBytes {
		log.Fatalf("prisma-bench: batch: moved %d bytes batched vs %d per-sample (must be equal)",
			batched.BackendBytes, per.BackendBytes)
	}
	if batched.Fallbacks != 0 {
		log.Fatalf("prisma-bench: batch: %d per-sample fallbacks, want 0", batched.Fallbacks)
	}
	if batched.BackendOps*int64(cfg.BatchSamples) > per.BackendOps {
		log.Fatalf("prisma-bench: batch: %d backend ops batched vs %d per-sample — less than the %dx reduction the coalescer guarantees",
			batched.BackendOps, per.BackendOps, cfg.BatchSamples)
	}
	fmt.Println()
	title := fmt.Sprintf("Read coalescing — %d-record packed shard, per-sample vs vectored at batch budget %d",
		cfg.Files, cfg.BatchSamples)
	if err := experiments.RenderBatch(os.Stdout, title, []experiments.BatchRow{per, batched}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbackend request reduction: %.2fx at equal bytes\n\n",
		float64(per.BackendOps)/float64(batched.BackendOps))
}

// runTiering runs the storage-tiering crossover cells (dataset far larger
// than the fast tier, skewed popularity, next-epoch warming) whose tables
// EXPERIMENTS.md records.
func runTiering(report func(string)) {
	rows, err := experiments.RunTieringCrossover(report)
	if err != nil {
		log.Fatalf("prisma-bench: tiering: %v", err)
	}
	fmt.Println()
	if err := experiments.RenderTiering(os.Stdout,
		"Tiering — 6 MiB dataset cycled 3 epochs over a 2 MiB fast tier (NFS slow tier, NVMe fast tier)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	skewBase, skewTier, err := experiments.RunTieringSkew(report)
	if err != nil {
		log.Fatalf("prisma-bench: tiering skew: %v", err)
	}
	if err := experiments.RenderTiering(os.Stdout,
		"Tiering — skewed popularity (10 hot of 100 samples, tier holds ~16)",
		[]experiments.TieringRow{skewBase, skewTier}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	noPref, pref, err := experiments.RunTieringPrefetch(report)
	if err != nil {
		log.Fatalf("prisma-bench: tiering prefetch: %v", err)
	}
	if err := experiments.RenderTiering(os.Stdout,
		"Tiering — next-epoch warming (epoch-2 plan submitted while epoch 1 trains)",
		[]experiments.TieringRow{noPref, pref}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// parseIntCSV parses a comma-separated list of positive integers.
func parseIntCSV(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// runChaos replays n seeded fault schedules through the chaos harness and
// summarizes delivery accounting, resilience telemetry, and the worst
// post-heal recovery ratio.
func runChaos(baseSeed int64, n int) {
	fmt.Printf("Chaos — %d seeded fault schedules (sim mode, 4 epochs, faults in the middle two)\n", n)
	var delivered, errors, injected, retries, opens, fastFails int64
	var worstRecovery float64
	degraded := 0
	for i := 0; i < n; i++ {
		cfg := chaos.DefaultConfig(baseSeed + int64(i))
		res, err := chaos.Run(cfg)
		if err != nil {
			log.Fatalf("prisma-bench: chaos seed %d: %v", cfg.Seed, err)
		}
		if got, want := res.Delivered+res.ConsumerErrors, int64(cfg.Files*cfg.Epochs); got != want {
			log.Fatalf("prisma-bench: chaos seed %d: %d outcomes for %d planned samples", cfg.Seed, got, want)
		}
		delivered += res.Delivered
		errors += res.ConsumerErrors
		injected += res.Injected
		retries += res.Retries
		opens += res.BreakerOpens
		fastFails += res.FastFails
		if res.DegradedObserved {
			degraded++
		}
		if res.RecoveryRatio > worstRecovery {
			worstRecovery = res.RecoveryRatio
		}
	}
	rows := [][]string{{
		fmt.Sprint(n),
		fmt.Sprint(delivered),
		fmt.Sprint(errors),
		fmt.Sprint(injected),
		fmt.Sprint(retries),
		fmt.Sprint(opens),
		fmt.Sprint(fastFails),
		fmt.Sprint(degraded),
		fmt.Sprintf("%.3f", worstRecovery),
	}}
	if err := experiments.WriteTable(os.Stdout,
		[]string{"schedules", "delivered", "consumer errs", "injected", "retries", "breaker opens", "fast fails", "degraded runs", "worst recovery"},
		rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runCluster sweeps the multi-node prefetch fabric's three arrangements —
// independent (every node prefetches the full epoch), coordinated (same,
// under one producer budget), and clairvoyant (consistent-hash placement
// partitions the plan; cross-node reads are peer-buffer forwards) — over a
// shared slow store, and asserts the fabric's economy claim so CI can run
// this target as a gate: clairvoyant issues exactly one backend read per
// unique sample per epoch, while the unpartitioned arrangements issue one
// per node.
func runCluster(nodes int) {
	fmt.Printf("Cluster fabric — independent vs coordinated vs clairvoyant placement (%d nodes, shared PFS)\n", nodes)
	rows := make([][]string, 0, 3)
	for _, mode := range []distrib.ClusterMode{
		distrib.ClusterIndependent, distrib.ClusterCoordinated, distrib.ClusterClairvoyant,
	} {
		cfg := distrib.DefaultClusterConfig()
		cfg.Nodes = nodes
		cfg.Mode = mode
		res, err := distrib.RunCluster(cfg)
		if err != nil {
			log.Fatalf("prisma-bench: cluster %s: %v", mode, err)
		}
		if res.Errors != 0 || res.OverDeliveries != 0 || res.MissedDeliveries != 0 {
			log.Fatalf("prisma-bench: cluster %s: delivery broke (errors=%d over=%d missed=%d)",
				mode, res.Errors, res.OverDeliveries, res.MissedDeliveries)
		}
		perEpoch := int64(res.UniqueSamples)
		if mode != distrib.ClusterClairvoyant {
			perEpoch *= int64(nodes)
		}
		for e, reads := range res.EpochBackendReads {
			if reads != perEpoch {
				log.Fatalf("prisma-bench: cluster %s: epoch %d backend reads %d, want %d",
					mode, e, reads, perEpoch)
			}
		}
		if mode == distrib.ClusterClairvoyant {
			if res.DuplicateReadFactor != 1 {
				log.Fatalf("prisma-bench: clairvoyant duplicate-read factor %.3f, want 1", res.DuplicateReadFactor)
			}
		} else if nodes >= 2 && res.DuplicateReadFactor <= 1 {
			log.Fatalf("prisma-bench: %s duplicate-read factor %.3f, want > 1", mode, res.DuplicateReadFactor)
		}
		rows = append(rows, []string{
			mode.String(),
			res.Makespan.Round(time.Millisecond).String(),
			fmt.Sprint(res.PFS.Reads),
			fmt.Sprintf("%.2fx", res.DuplicateReadFactor),
			fmt.Sprint(res.PeerReads),
			fmt.Sprint(res.Failovers),
			fmt.Sprint(res.TotalProducers),
		})
	}
	if err := experiments.WriteTable(os.Stdout,
		[]string{"mode", "makespan", "pfs reads", "dup factor", "peer reads", "failovers", "producers"}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func runDistrib() {
	fmt.Println("Distributed stages — coordinated vs independent control (8 nodes, shared PFS)")
	rows := make([][]string, 0, 2)
	for _, mode := range []distrib.ClusterMode{distrib.ClusterIndependent, distrib.ClusterCoordinated} {
		cfg := distrib.DataParallelConfig()
		cfg.Mode = mode
		res, err := distrib.RunCluster(cfg)
		if err != nil {
			log.Fatalf("prisma-bench: distrib %s: %v", mode, err)
		}
		if res.Errors != 0 || res.OverDeliveries != 0 || res.MissedDeliveries != 0 {
			log.Fatalf("prisma-bench: distrib %s: delivery broke (errors=%d over=%d missed=%d)",
				mode, res.Errors, res.OverDeliveries, res.MissedDeliveries)
		}
		rows = append(rows, []string{
			mode.String(),
			res.Makespan.Round(time.Millisecond).String(),
			fmt.Sprint(res.PeakReaders),
			fmt.Sprint(res.PFS.Reads),
		})
	}
	if err := experiments.WriteTable(os.Stdout, []string{"mode", "makespan", "peak threads", "pfs reads"}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func runAblations(cal experiments.Calibration, report func(string)) {
	rows, err := experiments.RunAblationStaticT(cal, []int{1, 2, 4, 8, 16, 32}, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation static-t: %v", err)
	}
	fmt.Println()
	if err := experiments.RenderAblation(os.Stdout, "Ablation — static producer count vs auto-tuning (LeNet, batch 256)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationBuffer(cal, []int{1, 4, 16, 64, 256, 1024}, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation buffer: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — buffer capacity N (t pinned at 4)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationDevices(cal, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation devices: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — storage media (auto-tuned PRISMA)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationDatasets(cal, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation datasets: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — dataset families from MiB to TiB scale (§I motivation)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationAlgorithms(cal, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation algorithms: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — control algorithms for (t, N) (the §V-A open comparison)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationPackedFormat(cal, []int64{1 << 20, 4 << 20, 16 << 20}, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation data-format: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — per-file reads vs TFRecord-style packed shards (1 epoch, 1 reader)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	rows, err = experiments.RunAblationValPrefetch(cal, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation val-prefetch: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — validation-file prefetching (the §V-A prototype limitation)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	costs := []time.Duration{0, 20 * time.Microsecond, 55 * time.Microsecond, 150 * time.Microsecond, 500 * time.Microsecond}
	rows, err = experiments.RunAblationAccessCost(cal, costs, report)
	if err != nil {
		log.Fatalf("prisma-bench: ablation access-cost: %v", err)
	}
	if err := experiments.RenderAblation(os.Stdout, "Ablation — serialized buffer/IPC access cost (the §V-B bottleneck)", rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
