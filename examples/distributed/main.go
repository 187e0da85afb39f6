// Distributed scenario (§VII "distributed training settings"): an 8-node
// cluster trains LeNet in synchronous data parallelism against a shared
// parallel file system, each node fronted by its own PRISMA stage. The
// run contrasts eight independent per-node auto-tuners with one
// coordinated controller that allocates a global producer budget — same
// training throughput, far fewer reader threads cluster-wide.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/distrib"
)

func main() {
	base := distrib.DataParallelConfig()

	fmt.Printf("%d nodes × 4 GPUs, %d files/epoch sharded round-robin, shared %d-channel PFS\n\n",
		base.Nodes, base.TrainFiles, base.PFS.Channels)

	for _, mode := range []distrib.ClusterMode{distrib.ClusterIndependent, distrib.ClusterCoordinated} {
		cfg := base
		cfg.Mode = mode
		res, err := distrib.RunCluster(cfg)
		if err != nil || res.Errors != 0 {
			log.Fatalf("%s: %v (%d failed reads)", mode, err, res.Errors)
		}
		fmt.Printf("%-12s makespan %v, cluster-wide peak reader threads: %d\n",
			mode.String()+":", res.Makespan.Round(time.Millisecond), res.PeakReaders)
		fmt.Printf("             per-node tuning:")
		for _, t := range res.NodeProducers {
			fmt.Printf(" t=%d", t)
		}
		fmt.Printf("\n             PFS served %d reads, %.1f GiB\n\n",
			res.PFS.Reads, float64(res.PFS.Bytes)/(1<<30))
	}

	fmt.Println("Coordinated control reaches the same makespan with a bounded thread")
	fmt.Println("budget — the cluster-level version of Figure 3's overprovisioning result.")
}
