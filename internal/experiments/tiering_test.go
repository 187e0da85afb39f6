package experiments

import "testing"

// TestTieringCrossover pins the dataset-larger-than-tier story: the
// undersized tier does not thrash on the epoch scan — it fills once, keeps
// what it holds, hits its capacity fraction from the second epoch on and
// beats the slow-only baseline; transparent compression shrinks the working
// set under the byte budget and wins outright, and a tier sized to fit the
// dataset brackets the achievable win. Everything runs in virtual time, so
// the inequalities are exact, not flaky.
func TestTieringCrossover(t *testing.T) {
	rows, err := RunTieringCrossover(nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TieringRow{}
	for _, r := range rows {
		byName[r.Setup] = r
	}
	slow, tiered := byName["slow-only"], byName["tiered"]
	compress, fits := byName["tiered+compress"], byName["tiered-fits"]

	// 32 of 96 samples fit: epoch 1 fills, epochs 2 and 3 hit a third each.
	if tiered.Total >= slow.Total {
		t.Errorf("undersized tier should beat slow-only: tiered %v >= slow %v", tiered.Total, slow.Total)
	}
	if got, want := tiered.Stats.FastHits, int64(2*32); got != want {
		t.Errorf("undersized tier hit %d times, want %d (its capacity fraction of epochs 2 and 3)", got, want)
	}
	if tiered.Stats.Promotions != 32 || tiered.Stats.Evictions != 0 {
		t.Errorf("undersized tier should fill once and keep its residents: %d promotions, %d evictions",
			tiered.Stats.Promotions, tiered.Stats.Evictions)
	}
	if got, want := tiered.Stats.Declined, int64(64+2*64); got != want {
		t.Errorf("undersized tier declined %d misses, want %d (every miss once full)", got, want)
	}
	if tiered.Stats.TrackedNames != 64 {
		t.Errorf("undersized tier tracks %d names, want the 64 it declined", tiered.Stats.TrackedNames)
	}
	if fits.Stats.Promotions != 96 || fits.Stats.Declined != 0 {
		t.Errorf("dataset-sized tier promoted %d, declined %d; want 96, 0", fits.Stats.Promotions, fits.Stats.Declined)
	}
	if compress.Total >= slow.Total {
		t.Errorf("compressed tier should beat slow-only: %v >= %v", compress.Total, slow.Total)
	}
	if compress.Total >= tiered.Total {
		t.Errorf("compression should beat the undersized cell: %v >= %v", compress.Total, tiered.Total)
	}
	if compress.HitRate < 0.6 {
		t.Errorf("compressed tier hit rate %.2f, want >= 0.6 (dataset should fit once compressed)", compress.HitRate)
	}
	if got, want := compress.Stats.Residents, 96; got != want {
		t.Errorf("compressed residents = %d, want %d (whole dataset)", got, want)
	}
	if compress.Stats.FastUsed >= compress.Stats.FastLogical {
		t.Errorf("compressed tier should store fewer physical than logical bytes: %d >= %d",
			compress.Stats.FastUsed, compress.Stats.FastLogical)
	}
	if compress.Stats.FastUsed > compress.Stats.Capacity {
		t.Errorf("tier overcommitted: used %d > capacity %d", compress.Stats.FastUsed, compress.Stats.Capacity)
	}
	if fits.Total >= slow.Total {
		t.Errorf("dataset-sized tier should beat slow-only: %v >= %v", fits.Total, slow.Total)
	}
	// Cold-start vs warmed: the first epoch pays slow reads + promotion
	// copies, later epochs are pure fast hits.
	if len(fits.Epochs) == 3 && fits.Epochs[2]*2 >= fits.Epochs[0] {
		t.Errorf("warmed epoch should be far cheaper than cold start: epoch2 %v vs epoch0 %v",
			fits.Epochs[2], fits.Epochs[0])
	}
}

// TestTieringSkew pins the skewed-popularity cell: a tier holding ~16 of
// 100 samples still wins big when 10 names absorb half the accesses, and
// the bounded access map (MaxTracked far below the cold-name population)
// decays without forgetting the hot set.
func TestTieringSkew(t *testing.T) {
	baseline, tiered, err := RunTieringSkew(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Total >= baseline.Total {
		t.Errorf("skewed tiering should beat slow-only: %v >= %v", tiered.Total, baseline.Total)
	}
	if tiered.HitRate < 0.4 {
		t.Errorf("hot-set hit rate %.2f, want >= 0.4", tiered.HitRate)
	}
	if tiered.Stats.AccessDecays == 0 {
		t.Error("MaxTracked=32 under 90 cold names/epoch should force decay sweeps, got none")
	}
	if tiered.Stats.TrackedNames > 32 {
		t.Errorf("access map %d names, want <= MaxTracked 32", tiered.Stats.TrackedNames)
	}
	if tiered.Stats.Residents < 10 {
		t.Errorf("hot set should be resident: %d residents, want >= 10", tiered.Stats.Residents)
	}
}

// TestTieringPrefetch pins next-epoch warming: submitting the epoch-2 plan
// at the start of epoch 1 lets the warmer pull the cold half in while
// epoch 1 trains on fast hits, so epoch 2 runs mostly warm.
func TestTieringPrefetch(t *testing.T) {
	without, with, err := RunTieringPrefetch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if with.Epochs[2] >= without.Epochs[2] {
		t.Errorf("prefetch should speed up epoch 2: %v >= %v", with.Epochs[2], without.Epochs[2])
	}
	if with.Stats.PrefetchPromotions < 24 {
		t.Errorf("warmer promoted %d of 32 cold samples, want >= 24", with.Stats.PrefetchPromotions)
	}
	if with.Stats.PrefetchSkips < 32 {
		t.Errorf("warmer should skip the 32 already-resident plan entries, got %d skips", with.Stats.PrefetchSkips)
	}
	if without.Stats.PrefetchPromotions != 0 {
		t.Errorf("no-prefetch cell warmed %d samples, want 0", without.Stats.PrefetchPromotions)
	}
	// Warming never evicts: the control cell's epochs 0-1 are identical.
	if with.Epochs[0] != without.Epochs[0] || with.Epochs[1] != without.Epochs[1] {
		t.Errorf("warming changed earlier epochs: %v vs %v", with.Epochs[:2], without.Epochs[:2])
	}
}
