package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// ShardSweepRow is one cell of the buffer-shard sweep: K shards driven by
// C paired producer/consumer couples.
type ShardSweepRow struct {
	Shards    int
	Consumers int
	Makespan  time.Duration
	OpsPerSec float64 // aggregate Put+Take operations per second of virtual time
	Speedup   float64 // vs the K=1 cell at the same consumer count
}

// RunShardSweep isolates the §V-B synchronization bottleneck at the buffer
// level: C consumer threads (each paired with a producer feeding it a
// disjoint name stream) drive the sharded buffer with the PyTorch
// calibration's serialized access cost, at each shard count K. With K=1
// every operation serializes behind one lock — the consumer-scaling wall
// the paper observes at 8+ PyTorch workers; sharding lets operations on
// different shards overlap, so aggregate throughput scales with C again.
// perConsumer is the number of samples each couple moves through the
// buffer (0 = 200). Deterministic: same inputs, same virtual-time results.
func RunShardSweep(cal Calibration, shardCounts, consumerCounts []int, perConsumer int, report func(string)) ([]ShardSweepRow, error) {
	if perConsumer <= 0 {
		perConsumer = 200
	}
	accessCost := cal.TorchPrismaStage.BufferAccessCost
	var rows []ShardSweepRow
	baseline := make(map[int]time.Duration) // consumer count -> K=1 makespan
	for _, k := range shardCounts {
		for _, c := range consumerCounts {
			makespan, err := runShardCell(k, c, perConsumer, accessCost)
			if err != nil {
				return nil, fmt.Errorf("shard sweep K=%d C=%d: %w", k, c, err)
			}
			row := ShardSweepRow{
				Shards:    k,
				Consumers: c,
				Makespan:  makespan,
				OpsPerSec: float64(2*c*perConsumer) / makespan.Seconds(),
			}
			if k == 1 {
				baseline[c] = makespan
			}
			if base, ok := baseline[c]; ok && makespan > 0 {
				row.Speedup = float64(base) / float64(makespan)
			}
			rows = append(rows, row)
			if report != nil {
				report(fmt.Sprintf("shards K=%-3d consumers=%-3d makespan=%-12v ops/s=%.0f",
					k, c, makespan.Round(time.Microsecond), row.OpsPerSec))
			}
		}
	}
	return rows, nil
}

// runShardCell measures one (K, C) cell: C producer/consumer couples, each
// moving perConsumer uniquely named samples through one sharded buffer,
// in the deterministic simulator. Returns the virtual-time makespan.
func runShardCell(shards, consumers, perConsumer int, accessCost time.Duration) (time.Duration, error) {
	const capacityPerConsumer = 4
	capacity := consumers * capacityPerConsumer
	if capacity < shards {
		capacity = shards
	}
	s := sim.New()
	env := conc.NewSimEnv(s)
	var makespan time.Duration
	var cellErr error
	s.Spawn("shard-cell", func(*sim.Process) {
		buf := core.NewShardedBuffer(env, capacity, accessCost, shards)
		wg := env.NewWaitGroup()
		start := env.Now()
		for c := 0; c < consumers; c++ {
			c := c
			wg.Add(2)
			env.Go(fmt.Sprintf("shard-producer-%d", c), func() {
				defer wg.Done()
				for i := 0; i < perConsumer; i++ {
					pos := core.PlanPos{Index: i*consumers + c}
					if _, err := buf.Put(core.Item{PlanPos: pos, Size: 1}); err != nil {
						cellErr = err
						return
					}
				}
			})
			env.Go(fmt.Sprintf("shard-consumer-%d", c), func() {
				defer wg.Done()
				for i := 0; i < perConsumer; i++ {
					pos := core.PlanPos{Index: i*consumers + c}
					if _, err := buf.Take(pos, core.TakeOptions{}); err != nil {
						cellErr = fmt.Errorf("take %d: %w", pos.Index, err)
						return
					}
				}
			})
		}
		wg.Wait()
		makespan = env.Now() - start
		st := buf.Stats()
		if want := int64(consumers * perConsumer); cellErr == nil && (st.Puts != want || st.Takes != want) {
			cellErr = fmt.Errorf("moved %d/%d of %d samples", st.Puts, st.Takes, want)
		}
		buf.Close()
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return makespan, cellErr
}

// RenderShardSweep prints the sweep as the usual text table.
func RenderShardSweep(w io.Writer, title string, rows []ShardSweepRow) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		speedup := "—"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		table = append(table, []string{
			fmt.Sprintf("K=%d", r.Shards),
			fmt.Sprint(r.Consumers),
			r.Makespan.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			speedup,
		})
	}
	return WriteTable(w, []string{"shards", "consumers", "makespan", "ops/sec", "vs K=1"}, table)
}
