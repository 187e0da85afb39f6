package distrib

import (
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// testClusterConfig is a small, fast cluster cell for the harness tests.
func testClusterConfig(mode ClusterMode, nodes int) ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.Mode = mode
	cfg.Nodes = nodes
	cfg.TrainFiles = 400
	cfg.Epochs = 2
	return cfg
}

// The deterministic cluster harness: every sample is served exactly the
// expected number of times per epoch, and clairvoyant placement issues zero
// duplicate slow-store reads while the uncoordinated sweeps issue N per
// sample.
func TestClusterExactlyOnceAndDuplicateReads(t *testing.T) {
	cases := []struct {
		name    string
		mode    ClusterMode
		nodes   int
		sharded bool
	}{
		{"independent-2", ClusterIndependent, 2, false},
		{"independent-4", ClusterIndependent, 4, false},
		{"coordinated-2", ClusterCoordinated, 2, false},
		{"coordinated-4", ClusterCoordinated, 4, false},
		{"clairvoyant-1", ClusterClairvoyant, 1, false},
		{"clairvoyant-2", ClusterClairvoyant, 2, false},
		{"clairvoyant-4", ClusterClairvoyant, 4, false},
		{"sharded-independent-4", ClusterIndependent, 4, true},
		{"sharded-coordinated-3", ClusterCoordinated, 3, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := testClusterConfig(tc.mode, tc.nodes)
			cfg.Sharded = tc.sharded
			res, err := RunCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d read errors", res.Errors)
			}
			if res.OverDeliveries != 0 || res.MissedDeliveries != 0 {
				t.Fatalf("delivery ledger off: over=%d missed=%d",
					res.OverDeliveries, res.MissedDeliveries)
			}
			perEpoch := int64(cfg.TrainFiles)
			wantDelivered := perEpoch * int64(cfg.Epochs)
			if tc.mode != ClusterClairvoyant && !tc.sharded {
				wantDelivered *= int64(tc.nodes)
				perEpoch *= int64(tc.nodes)
			}
			if res.Delivered != wantDelivered {
				t.Fatalf("delivered = %d, want %d", res.Delivered, wantDelivered)
			}
			if len(res.EpochBackendReads) != cfg.Epochs {
				t.Fatalf("epoch read samples = %d, want %d", len(res.EpochBackendReads), cfg.Epochs)
			}
			for e, reads := range res.EpochBackendReads {
				if reads != perEpoch {
					t.Fatalf("epoch %d backend reads = %d, want %d", e, reads, perEpoch)
				}
			}
			switch {
			case tc.sharded:
				if res.DuplicateReadFactor != 1 || res.PeerReads != 0 {
					t.Fatalf("sharded duplicate factor = %v, peer reads = %d; want 1, 0", res.DuplicateReadFactor, res.PeerReads)
				}
			case tc.mode == ClusterClairvoyant:
				if res.DuplicateReadFactor != 1 {
					t.Fatalf("clairvoyant duplicate factor = %v, want 1", res.DuplicateReadFactor)
				}
				if tc.nodes >= 2 && (res.PeerReads == 0 || res.PeerServes != res.PeerReads) {
					t.Fatalf("peer traffic off: reads=%d serves=%d", res.PeerReads, res.PeerServes)
				}
				if res.Failovers != 0 {
					t.Fatalf("unexpected failovers: %d", res.Failovers)
				}
			case tc.nodes >= 2:
				if res.DuplicateReadFactor <= 1 {
					t.Fatalf("uncoordinated duplicate factor = %v, want > 1", res.DuplicateReadFactor)
				}
			}
			if res.Makespan <= 0 {
				t.Fatal("zero makespan")
			}
		})
	}
}

// Clairvoyant placement's economy claim: at N nodes the independent sweep
// reads every sample N times from the slow store; clairvoyant reads it
// once, converting the difference into peer-buffer hits.
func TestClusterClairvoyantEliminatesDuplicateReads(t *testing.T) {
	const nodes = 4
	ind, err := RunCluster(testClusterConfig(ClusterIndependent, nodes))
	if err != nil {
		t.Fatal(err)
	}
	clair, err := RunCluster(testClusterConfig(ClusterClairvoyant, nodes))
	if err != nil {
		t.Fatal(err)
	}
	if ind.PFS.Reads != int64(nodes)*clair.PFS.Reads {
		t.Fatalf("independent reads %d != %d x clairvoyant reads %d",
			ind.PFS.Reads, nodes, clair.PFS.Reads)
	}
	if clair.PeerReads == 0 {
		t.Fatal("clairvoyant run forwarded nothing")
	}
}

// Centralized and replicated control planes are behaviourally identical
// while the leader is healthy: same producer budget, same data-plane
// outcome. A leader crash mid-run fails over and stays within budget.
func TestClusterControlPlaneConvergence(t *testing.T) {
	base := testClusterConfig(ClusterCoordinated, 4)

	central, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}

	replicated := base
	replicated.Replicas = 3
	repl, err := RunCluster(replicated)
	if err != nil {
		t.Fatal(err)
	}
	if repl.TotalProducers != central.TotalProducers {
		t.Fatalf("replicated budget %d != centralized %d",
			repl.TotalProducers, central.TotalProducers)
	}
	if repl.Delivered != central.Delivered || repl.PFS.Reads != central.PFS.Reads {
		t.Fatalf("replicated data plane diverged: delivered %d/%d reads %d/%d",
			repl.Delivered, central.Delivered, repl.PFS.Reads, central.PFS.Reads)
	}
	if repl.ControlFailovers != 0 {
		t.Fatalf("healthy replicated run recorded %d failovers", repl.ControlFailovers)
	}

	// Kill the leader mid-run: replica 1 must take over and keep the
	// cluster inside the budget; the training run still completes cleanly.
	failover := replicated
	failover.FailLeaderAt = central.Makespan / 2
	failed, err := RunCluster(failover)
	if err != nil {
		t.Fatal(err)
	}
	if failed.ControlFailovers < 1 {
		t.Fatal("leader crash produced no failover")
	}
	if failed.TotalProducers > base.ProducerBudget {
		t.Fatalf("post-failover producers %d exceed budget %d",
			failed.TotalProducers, base.ProducerBudget)
	}
	if failed.Errors != 0 || failed.OverDeliveries != 0 || failed.MissedDeliveries != 0 {
		t.Fatalf("failover run broke delivery: errors=%d over=%d missed=%d",
			failed.Errors, failed.OverDeliveries, failed.MissedDeliveries)
	}
	if failed.Delivered != central.Delivered {
		t.Fatalf("failover delivered %d, want %d", failed.Delivered, central.Delivered)
	}
}

// Clairvoyant mode also runs under coordinated control arrangements; the
// budget holds there too.
func TestClusterClairvoyantUnderReplicatedControl(t *testing.T) {
	cfg := testClusterConfig(ClusterClairvoyant, 4)
	cfg.Replicas = 2
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.OverDeliveries != 0 || res.MissedDeliveries != 0 {
		t.Fatalf("delivery broke: errors=%d over=%d missed=%d",
			res.Errors, res.OverDeliveries, res.MissedDeliveries)
	}
	if res.DuplicateReadFactor != 1 {
		t.Fatalf("duplicate factor = %v, want 1", res.DuplicateReadFactor)
	}
	if res.TotalProducers > cfg.ProducerBudget {
		t.Fatalf("producers %d exceed budget %d", res.TotalProducers, cfg.ProducerBudget)
	}
}

// The debug-signals observer is installed from the test goroutine and read
// from sim processes every tick; the locked setter keeps that race-free
// under -race, and the observed producer counts never exceed the budget.
func TestClusterDebugSignalsObserver(t *testing.T) {
	var mu sync.Mutex
	ticks := 0
	maxProducers := 0
	prev := setDebugSignals(func(stage int, starvation, idle float64, queue, producers int) {
		mu.Lock()
		ticks++
		if producers > maxProducers {
			maxProducers = producers
		}
		mu.Unlock()
	})
	defer setDebugSignals(prev)

	cfg := testClusterConfig(ClusterCoordinated, 2)
	cfg.Epochs = 1
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ticks == 0 {
		t.Fatal("observer never fired")
	}
	if maxProducers > cfg.ProducerBudget {
		t.Fatalf("observed %d producers, budget %d", maxProducers, cfg.ProducerBudget)
	}
	if res.Delivered == 0 {
		t.Fatal("no samples delivered")
	}
}

// The harness validates configs before simulating.
func TestClusterConfigValidate(t *testing.T) {
	if err := DefaultClusterConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DataParallelConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DataParallelConfig()
	bad.Mode = ClusterClairvoyant
	if bad.Validate() == nil {
		t.Error("sharded clairvoyant placement accepted")
	}
	bad = DataParallelConfig()
	bad.StepCompute = -time.Millisecond
	if bad.Validate() == nil {
		t.Error("negative step compute accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultClusterConfig()
	bad := good
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("zero nodes accepted")
	}
	bad = good
	bad.TrainFiles = 2
	bad.Nodes = 4
	if bad.Validate() == nil {
		t.Error("fewer files than nodes accepted")
	}
	bad = good
	bad.Mode = ClusterCoordinated
	bad.ProducerBudget = 1
	bad.Nodes = 4
	if bad.Validate() == nil {
		t.Error("budget below node count accepted")
	}
}

func TestHeterogeneousLinksValidation(t *testing.T) {
	cfg := DataParallelConfig()
	cfg.Links = append(cfg.Links, cfg.Links[0]) // two links for eight nodes
	if cfg.Validate() == nil {
		t.Fatal("mismatched Links length accepted")
	}
}

func TestModeString(t *testing.T) {
	if ClusterIndependent.String() != "independent" ||
		ClusterCoordinated.String() != "coordinated" ||
		ClusterClairvoyant.String() != "clairvoyant" {
		t.Fatal("mode strings wrong")
	}
}

func TestShardPartition(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	seen := map[string]int{}
	total := 0
	for n := 0; n < 3; n++ {
		shard := Shard(names, 3, n)
		total += len(shard)
		for _, s := range shard {
			seen[s]++
		}
	}
	if total != len(names) {
		t.Fatalf("shards cover %d names, want %d", total, len(names))
	}
	for name, c := range seen {
		if c != 1 {
			t.Fatalf("%s appears %d times across shards", name, c)
		}
	}
	// Shard sizes differ by at most one.
	if len(Shard(names, 3, 0))-len(Shard(names, 3, 2)) > 1 {
		t.Fatal("unbalanced shards")
	}
}

func TestShardValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shard index accepted")
		}
	}()
	Shard([]string{"a"}, 2, 5)
}

// dataParallelTestConfig is an I/O-bound 4-node synchronous data-parallel
// cluster against a 16-channel PFS: round-robin shards over 100 Gb/s
// links, paced by 4-GPU LeNet steps at batch 64 per GPU.
func dataParallelTestConfig() ClusterConfig {
	cfg := DataParallelConfig()
	cfg.Nodes = 4
	cfg.TrainFiles = 8000
	cfg.PFS.Channels = 16
	cfg.Links[0].Name = "node-link"
	cfg.ProducerBudget = 20
	return cfg
}

// runDataParallel runs dataParallelTestConfig under mode and checks that
// every file is delivered once per epoch from one PFS read each.
func runDataParallel(t *testing.T, mode ClusterMode) (ClusterConfig, ClusterResult) {
	t.Helper()
	cfg := dataParallelTestConfig()
	cfg.Mode = mode
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.TrainFiles * cfg.Epochs)
	if res.Delivered != want || res.Errors != 0 || res.OverDeliveries != 0 || res.MissedDeliveries != 0 {
		t.Fatalf("%s: delivered %d (want %d, every file every epoch), errors %d, over %d, missed %d",
			mode, res.Delivered, want, res.Errors, res.OverDeliveries, res.MissedDeliveries)
	}
	if res.PFS.Reads != want {
		t.Fatalf("%s: PFS reads = %d, want %d", mode, res.PFS.Reads, want)
	}
	if len(res.NodeProducers) != cfg.Nodes || res.PeakReaders < cfg.Nodes || res.Makespan <= 0 {
		t.Fatalf("%s: %d node tunings, %d peak readers, makespan %v", mode, len(res.NodeProducers), res.PeakReaders, res.Makespan)
	}
	return cfg, res
}

func TestRunIndependentCompletes(t *testing.T) {
	runDataParallel(t, ClusterIndependent)
}

// Coordination also keeps the cluster's producers within its budget.
func TestRunCoordinatedCompletes(t *testing.T) {
	cfg, res := runDataParallel(t, ClusterCoordinated)
	if res.TotalProducers > cfg.ProducerBudget {
		t.Fatalf("cluster producers %d exceed budget %d", res.TotalProducers, cfg.ProducerBudget)
	}
}

// Every node runs the same all-reduce count, the largest shard's: with
// 9 files over 2 nodes and 4 samples per step, node 0's shard of 5 needs
// two steps and node 1 pads an empty second one. A node that skipped it
// would meet the other at the wrong barrier and the run would never finish
// (go test's timeout reports the hang); a node that ran ahead would not
// pay the other's steps.
func TestBarrierKeepsNodesInStep(t *testing.T) {
	cfg := DataParallelConfig()
	cfg.Nodes = 2
	cfg.TrainFiles = 9
	cfg.Epochs = 1
	cfg.SyncEvery = 4
	cfg.PerStepSync = time.Second
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 9 || res.Errors != 0 {
		t.Fatalf("delivered %d, errors %d; want 9, 0", res.Delivered, res.Errors)
	}
	if res.Makespan < 2*time.Second || res.Makespan >= 2500*time.Millisecond {
		t.Fatalf("makespan %v, want two 1 s steps", res.Makespan)
	}
}

// When the shards divide evenly into global batches, no epoch pays an
// extra, empty all-reduce step: 2 nodes x 128 samples at 64 per step is
// two 1 s steps, not three.
func TestEvenShardsRunNoPaddingStep(t *testing.T) {
	cfg := DataParallelConfig()
	cfg.Nodes = 2
	cfg.TrainFiles = 256
	cfg.Epochs = 1
	cfg.SyncEvery = 64 // 1 GPU x batch 64
	cfg.StepCompute = train.LeNet().StepTime(64)
	cfg.PerStepSync = time.Second
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 256 || res.Errors != 0 {
		t.Fatalf("delivered %d, errors %d; want 256, 0", res.Delivered, res.Errors)
	}
	if res.Makespan >= 2500*time.Millisecond {
		t.Fatalf("makespan %v, want two 1 s steps (under 2.5 s)", res.Makespan)
	}
}

// The headline claim: coordinated control reaches (approximately) the
// same makespan while deploying fewer reader threads cluster-wide.
func TestCoordinationMatchesThroughputWithFewerThreads(t *testing.T) {
	cfgI := dataParallelTestConfig()
	cfgI.Nodes = 8
	cfgI.TrainFiles = 16000
	cfgI.PFS.Channels = 8 // scarce shared backend: oversubscription hurts nobody but wastes threads
	// Two producers per node: enough to cover per-request queueing at the
	// saturated PFS, far below what eight independent tuners deploy.
	cfgI.ProducerBudget = 16
	resI, err := RunCluster(cfgI)
	if err != nil {
		t.Fatal(err)
	}

	cfgC := cfgI
	cfgC.Mode = ClusterCoordinated
	resC, err := RunCluster(cfgC)
	if err != nil {
		t.Fatal(err)
	}

	if float64(resC.Makespan) > 1.15*float64(resI.Makespan) {
		t.Fatalf("coordinated makespan %v more than 15%% behind independent %v", resC.Makespan, resI.Makespan)
	}
	if resC.PeakReaders >= resI.PeakReaders {
		t.Fatalf("coordinated threads %d not fewer than independent %d", resC.PeakReaders, resI.PeakReaders)
	}
}

// One node sits behind a 10x slower link. The coordinator, seeing that
// node starve, grants it more producers than its fast peers — the
// "holistic tuning" a per-node tuner cannot do without more threads
// everywhere.
func TestCoordinatorShiftsProducersToSlowNode(t *testing.T) {
	cfg := dataParallelTestConfig()
	cfg.Mode = ClusterCoordinated
	cfg.ProducerBudget = 12
	// A finite consumption rate (mixed AlexNet workload) lets satisfied
	// fast nodes go calm while the straggler keeps starving; a bounded
	// buffer keeps producer count (not buffer growth) the binding knob.
	cfg.StepCompute = train.AlexNet().StepTime(64)
	cfg.Stage.MaxBufferCapacity = 64
	cfg.Policy.MaxBuffer = 64
	fast := cfg.Links[0]
	slow := fast
	slow.BaseLatency = 50 * fast.BaseLatency // a 1 ms straggler path
	slow.BytesPerSecond = fast.BytesPerSecond / 10
	cfg.Links = []storage.DeviceSpec{fast, fast, fast, slow}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowT := res.NodeProducers[3]
	maxFast := 0
	for _, p := range res.NodeProducers[:3] {
		maxFast = max(maxFast, p)
	}
	if slowT <= maxFast {
		t.Fatalf("slow node got t=%d, fast peers up to t=%d — coordinator did not shift budget", slowT, maxFast)
	}
	if res.TotalProducers > cfg.ProducerBudget {
		t.Fatalf("cluster producers %d exceed budget %d", res.TotalProducers, cfg.ProducerBudget)
	}
}

// Doubling nodes against an under-utilized PFS should cut the makespan
// substantially (near-linear until the PFS saturates).
func TestScaleOutReducesEpochTime(t *testing.T) {
	small := dataParallelTestConfig()
	small.Nodes = 2
	small.Epochs = 1
	resSmall, err := RunCluster(small)
	if err != nil {
		t.Fatal(err)
	}
	big := small
	big.Nodes = 4
	resBig, err := RunCluster(big)
	if err != nil {
		t.Fatal(err)
	}
	if float64(resBig.Makespan) > 0.75*float64(resSmall.Makespan) {
		t.Fatalf("4 nodes (%v) not clearly faster than 2 (%v)", resBig.Makespan, resSmall.Makespan)
	}
}

// A slow per-node link must dominate a fast PFS.
func TestLinkCostsShowUp(t *testing.T) {
	fast := dataParallelTestConfig()
	fast.Nodes = 2
	fast.Epochs = 1
	fast.TrainFiles = 2000
	resFast, err := RunCluster(fast)
	if err != nil {
		t.Fatal(err)
	}
	slow := fast
	slow.Links = []storage.DeviceSpec{{
		Name: "1gbe", BaseLatency: 200 * time.Microsecond, BytesPerSecond: 125e6, Channels: 1,
	}}
	resSlow, err := RunCluster(slow)
	if err != nil {
		t.Fatal(err)
	}
	if resSlow.Makespan < 2*resFast.Makespan {
		t.Fatalf("slow link (%v) not clearly worse than fast (%v)", resSlow.Makespan, resFast.Makespan)
	}
}
