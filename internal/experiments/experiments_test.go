package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/train"
)

// fastCal is the calibration used by the shape-assertion tests: one run
// per configuration at 1/512 scale keeps the whole suite in seconds while
// preserving every qualitative shape.
func fastCal() Calibration {
	cal := Default()
	cal.Scale = 1.0 / 512
	cal.Runs = 1
	return cal
}

func cellFor(cells []Fig2Cell, model string, batch int, setup string) Fig2Cell {
	for _, c := range cells {
		if c.Model == model && c.Batch == batch && c.Setup == setup {
			return c
		}
	}
	panic("cell not found: " + model + "/" + setup)
}

func TestFig2LeNetShape(t *testing.T) {
	// Paper: PRISMA cuts LeNet training time by >50% vs TF baseline;
	// TF-optimized performs at least as well as PRISMA; both improve (or
	// hold) as batch size grows while the baseline stays ~flat.
	cal := fastCal()
	cells, err := RunFig2(cal, []train.Model{train.LeNet()}, []int{64, 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{64, 256} {
		base := cellFor(cells, "lenet", batch, "tf-baseline")
		opt := cellFor(cells, "lenet", batch, "tf-optimized")
		pri := cellFor(cells, "lenet", batch, "prisma")
		if pri.Reduction < 0.45 || pri.Reduction > 0.80 {
			t.Errorf("b=%d: PRISMA reduction %.0f%%, want 45-80%%", batch, pri.Reduction*100)
		}
		if opt.Summary.Mean > pri.Summary.Mean {
			t.Errorf("b=%d: TF-optimized (%v) slower than PRISMA (%v)", batch, opt.Summary.Mean, pri.Summary.Mean)
		}
		// The paper's b64 ratio is 4177/2047 ≈ 2.04; allow margin around it.
		if float64(base.Summary.Mean) < 1.8*float64(pri.Summary.Mean) {
			t.Errorf("b=%d: baseline (%v) not ≫ PRISMA (%v)", batch, base.Summary.Mean, pri.Summary.Mean)
		}
	}
	// Batch growth helps PRISMA (paper: 2047 s → 1880 s).
	p64 := cellFor(cells, "lenet", 64, "prisma").Summary.Mean
	p256 := cellFor(cells, "lenet", 256, "prisma").Summary.Mean
	if p256 > p64 {
		t.Errorf("PRISMA did not improve with batch: b64=%v b256=%v", p64, p256)
	}
	// Baseline approximately flat (within 10%).
	b64 := cellFor(cells, "lenet", 64, "tf-baseline").Summary.Mean
	b256 := cellFor(cells, "lenet", 256, "tf-baseline").Summary.Mean
	ratio := float64(b64) / float64(b256)
	if ratio < 0.90 || ratio > 1.15 {
		t.Errorf("baseline not flat across batch: b64=%v b256=%v", b64, b256)
	}
}

func TestFig2AlexNetShape(t *testing.T) {
	// Paper: ~20% reduction for AlexNet (mixed workload).
	cal := fastCal()
	cells, err := RunFig2(cal, []train.Model{train.AlexNet()}, []int{64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pri := cellFor(cells, "alexnet", 64, "prisma")
	if pri.Reduction < 0.10 || pri.Reduction > 0.40 {
		t.Errorf("AlexNet PRISMA reduction %.0f%%, want 10-40%% (paper ≈20%%)", pri.Reduction*100)
	}
}

func TestFig2ResNetShape(t *testing.T) {
	// Paper: no impact on the compute-bound model, for either setup.
	cal := fastCal()
	cells, err := RunFig2(cal, []train.Model{train.ResNet50()}, []int{64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range []string{"tf-optimized", "prisma"} {
		c := cellFor(cells, "resnet50", 64, setup)
		if c.Reduction < -0.10 || c.Reduction > 0.12 {
			t.Errorf("ResNet-50 %s reduction %.0f%%, want ≈0%%", setup, c.Reduction*100)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	// Paper: PRISMA uses at most 4 concurrent threads (3 for ResNet-50)
	// while TF-optimized pins the maximum (30) — "2-7x more threads".
	cal := fastCal()
	series, err := RunFig3(cal, []train.Model{train.LeNet(), train.ResNet50()}, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range series {
		switch sr.Setup {
		case "prisma":
			if sr.MaxThreads > 8 {
				t.Errorf("%s PRISMA max threads %d, want small (≤8)", sr.Model, sr.MaxThreads)
			}
		case "tf-optimized":
			if sr.MaxThreads < 20 {
				t.Errorf("%s TF-optimized max threads %d, want ≈30", sr.Model, sr.MaxThreads)
			}
		}
		if len(sr.CDF) == 0 {
			t.Errorf("%s/%s: empty CDF", sr.Model, sr.Setup)
			continue
		}
		if last := sr.CDF[len(sr.CDF)-1].CumFraction; last != 1 {
			t.Errorf("%s/%s: CDF ends at %v, want 1", sr.Model, sr.Setup, last)
		}
	}
	// The overprovisioning factor itself.
	var priMax, optMax int
	for _, sr := range series {
		if sr.Model == "lenet" {
			if sr.Setup == "prisma" {
				priMax = sr.MaxThreads
			} else {
				optMax = sr.MaxThreads
			}
		}
	}
	if optMax < 2*priMax {
		t.Errorf("TF-optimized (%d threads) not ≥2x PRISMA (%d)", optMax, priMax)
	}
}

func TestFig4Shape(t *testing.T) {
	// Paper §V-B: PRISMA beats PyTorch at 0 workers by a wide margin,
	// loses slightly at 8+, and is stable across worker counts.
	cal := fastCal()
	cells, err := RunFig4(cal, []train.Model{train.LeNet()}, 256, []int{0, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(w int, setup string) time.Duration {
		for _, c := range cells {
			if c.Workers == w && c.Setup == setup {
				return c.Summary.Mean
			}
		}
		panic("missing cell")
	}
	if p, n := get(0, "prisma"), get(0, "pytorch"); float64(p) > 0.75*float64(n) {
		t.Errorf("w=0: PRISMA %v not ≪ PyTorch %v", p, n)
	}
	if p, n := get(8, "prisma"), get(8, "pytorch"); p <= n {
		t.Errorf("w=8: PRISMA %v not slower than PyTorch %v (sync bottleneck)", p, n)
	}
	// Stability: PRISMA's own spread across worker counts stays bounded.
	p0, p8 := get(0, "prisma"), get(8, "prisma")
	hi, lo := p0, p8
	if hi < lo {
		hi, lo = lo, hi
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("PRISMA unstable across workers: w0=%v w8=%v", p0, p8)
	}
}

func TestAblationStaticTShape(t *testing.T) {
	// The autotuner must land within striking distance of the best static
	// configuration while t=1 is clearly worse.
	cal := fastCal()
	rows, err := RunAblationStaticT(cal, []int{1, 4, 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byValue := map[string]AblationRow{}
	for _, r := range rows {
		byValue[r.Value] = r
	}
	best := time.Duration(1 << 62)
	for _, tval := range []string{"t=1", "t=4", "t=16"} {
		if d := byValue[tval].Elapsed; d < best {
			best = d
		}
	}
	auto := byValue["autotune"].Elapsed
	if float64(auto) > 1.20*float64(best) {
		t.Errorf("autotune %v more than 20%% behind best static %v", auto, best)
	}
	if t1 := byValue["t=1"].Elapsed; float64(t1) < 1.3*float64(best) {
		t.Errorf("t=1 (%v) unexpectedly close to best (%v)", t1, best)
	}
}

func TestAblationAccessCostMonotone(t *testing.T) {
	cal := fastCal()
	costs := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond}
	rows, err := RunAblationAccessCost(cal, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Elapsed < rows[i-1].Elapsed {
			t.Errorf("elapsed not monotone in access cost: %v then %v", rows[i-1].Elapsed, rows[i].Elapsed)
		}
	}
	// A heavy serialization cost must dominate visibly.
	if float64(rows[2].Elapsed) < 1.3*float64(rows[0].Elapsed) {
		t.Errorf("200µs access cost (%v) not clearly worse than free (%v)", rows[2].Elapsed, rows[0].Elapsed)
	}
}

func TestAblationDevices(t *testing.T) {
	cal := fastCal()
	rows, err := RunAblationDevices(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 devices", len(rows))
	}
	// The single-channel HDD must be far slower than the SSD.
	if float64(rows[1].Elapsed) < 3*float64(rows[0].Elapsed) {
		t.Errorf("HDD %v not ≫ SSD %v", rows[1].Elapsed, rows[0].Elapsed)
	}
}

func TestAblationDatasetsShape(t *testing.T) {
	// PRISMA's benefit must be large on the file-per-sample ImageNet
	// shape; small datasets still train correctly (the reduction for
	// cache-free tiny files is measured, not asserted: without a page
	// cache model in the loop, tiny files are still device reads).
	cal := fastCal()
	rows, err := RunAblationDatasets(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Value] = r
	}
	for _, want := range []string{"mnist", "cifar10", "imagenet"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing dataset row %s (have %v)", want, rows)
		}
	}
	if !strings.Contains(byName["imagenet"].Tuning, "reduction") {
		t.Fatalf("imagenet row lacks reduction: %+v", byName["imagenet"])
	}
}

func TestDatasetProfiles(t *testing.T) {
	for _, p := range dataset.Profiles() {
		if p.TrainFiles < 1 || p.TrainBytes < int64(p.TrainFiles) {
			t.Errorf("%s: implausible profile %+v", p.Name, p)
		}
	}
	prof, err := dataset.ProfileByName("cifar10")
	if err != nil || prof.TrainFiles != 50_000 {
		t.Fatalf("ProfileByName = %+v, %v", prof, err)
	}
	if _, err := dataset.ProfileByName("ghost"); err == nil {
		t.Fatal("unknown profile resolved")
	}
	tr, val, err := prof.Synthesize(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 || val.Len() != 100 {
		t.Fatalf("synthesized %d/%d, want 500/100", tr.Len(), val.Len())
	}
	if _, _, err := prof.Synthesize(0, 1); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestAblationAlgorithmsAllConvergeUsefully(t *testing.T) {
	cal := fastCal()
	rows, err := RunAblationAlgorithms(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 algorithms", len(rows))
	}
	byName := map[string]AblationRow{}
	best := rows[0].Elapsed
	for _, r := range rows {
		byName[r.Value] = r
		if r.Elapsed < best {
			best = r.Elapsed
		}
	}
	// Every feedback algorithm lands within 40% of the best (they all
	// find a working operating point for this workload).
	for _, name := range []string{"prisma-autotune", "aimd", "hill-climb"} {
		if got := byName[name].Elapsed; float64(got) > 1.4*float64(best) {
			t.Errorf("%s = %v, more than 40%% behind best %v", name, got, best)
		}
	}
	// The TF-style grow-only policy pins maximum threads (Fig. 3); the
	// feedback algorithms stay far below it.
	if byName["tf-growth"].MaxThreads < 20 {
		t.Errorf("tf-growth max threads = %d, want ≈32", byName["tf-growth"].MaxThreads)
	}
	if byName["prisma-autotune"].MaxThreads > 8 {
		t.Errorf("autotune max threads = %d, want small", byName["prisma-autotune"].MaxThreads)
	}
}

func TestAblationPackedFormatBeatsRawFiles(t *testing.T) {
	cal := fastCal()
	rows, err := RunAblationPackedFormat(cal, []int64{1 << 20, 16 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want raw + 2 chunk sizes", len(rows))
	}
	raw := rows[0].Elapsed
	packed1, packed16 := rows[1].Elapsed, rows[2].Elapsed
	if packed1*2 > raw {
		t.Errorf("1MiB packed (%v) not clearly faster than raw (%v)", packed1, raw)
	}
	if packed16 > packed1 {
		t.Errorf("larger chunks (%v) slower than smaller (%v)", packed16, packed1)
	}
}

func TestAblationValPrefetchClosesGap(t *testing.T) {
	// The §V-A extension: planning validation files moves PRISMA toward
	// TF-optimized.
	cal := fastCal()
	rows, err := RunAblationValPrefetch(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	byValue := map[string]AblationRow{}
	for _, r := range rows {
		byValue[r.Value] = r
	}
	plain := byValue["prisma"].Elapsed
	ext := byValue["prisma-valprefetch"].Elapsed
	opt := byValue["tf-optimized"].Elapsed
	if ext >= plain {
		t.Errorf("val-prefetch (%v) not faster than plain prisma (%v)", ext, plain)
	}
	gapBefore := plain - opt
	gapAfter := ext - opt
	if gapAfter >= gapBefore {
		t.Errorf("gap to TF-optimized did not shrink: %v -> %v", gapBefore, gapAfter)
	}
}

// RunTF and RunTorch train on cal's dataset profile at cal.Scale and tune
// their PRISMA stage with cal's control algorithm — the two inputs the
// ablations vary beyond the stage config, policy and device.
func TestRunTFProfileAndAlgorithm(t *testing.T) {
	cal := fastCal()
	cal.Epochs = 1
	prof, err := dataset.ProfileByName("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	cal.Profile = prof
	cal.Scale = 0.01
	cal.ControlInterval = 5 * time.Millisecond // tick within the short run
	fixed := control.Tuning{Producers: 3, BufferCapacity: 64}
	cal.Algorithm = func() control.Algorithm { return control.StaticAlgorithm{Fixed: fixed} }
	for _, setup := range []string{"tf-baseline", "prisma"} {
		m, err := RunTF(cal, train.LeNet(), 64, setup, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Result.TrainSamples != 500 {
			t.Fatalf("%s trained on %d samples, want cifar10's 500 at scale 0.01", setup, m.Result.TrainSamples)
		}
		if setup == "prisma" && (m.FinalTuning != fixed || metrics.MaxValue(m.Readers) > 3) {
			t.Fatalf("static algorithm not applied: tuning %+v, %d peak readers", m.FinalTuning, metrics.MaxValue(m.Readers))
		}
	}
	m, err := RunTorch(cal, train.LeNet(), 64, 2, "prisma", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Result.TrainSamples != 500 || m.FinalTuning != fixed {
		t.Fatalf("torch: %d samples, tuning %+v; want 500, %+v", m.Result.TrainSamples, m.FinalTuning, fixed)
	}
	// The zero profile is ImageNet.
	imagenet, _, err := dataset.SyntheticImageNet(fastCal().Scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err = RunTF(fastCal(), train.LeNet(), 64, "tf-baseline", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(imagenet.Len() * fastCal().Epochs); m.Result.TrainSamples != want {
		t.Fatalf("default profile trained on %d samples, want %d (ImageNet at 1/512)", m.Result.TrainSamples, want)
	}
}

func TestRunTFUnknownSetup(t *testing.T) {
	cal := fastCal()
	if _, err := RunTF(cal, train.LeNet(), 64, "nonsense", 1); err == nil {
		t.Fatal("unknown setup accepted")
	}
	if _, err := RunTorch(cal, train.LeNet(), 64, 0, "nonsense", 1); err == nil {
		t.Fatal("unknown torch setup accepted")
	}
}

func TestRunTFPropagatesConfigErrors(t *testing.T) {
	cal := fastCal()
	// Broken device spec.
	bad := cal
	bad.Device.BytesPerSecond = 0
	if _, err := RunTF(bad, train.LeNet(), 64, "tf-baseline", 1); err == nil {
		t.Error("zero-bandwidth device accepted")
	}
	// Broken scale.
	bad = cal
	bad.Scale = 2
	if _, err := RunTF(bad, train.LeNet(), 64, "tf-baseline", 1); err == nil {
		t.Error("scale > 1 accepted")
	}
	// Broken stage config for the prisma setup.
	bad = cal
	bad.TFPrismaStage.InitialProducers = 0
	if _, err := RunTF(bad, train.LeNet(), 64, "prisma", 1); err == nil {
		t.Error("bad stage config accepted")
	}
	// Broken policy.
	bad = cal
	bad.Policy.StarvationHigh = 0
	if _, err := RunTF(bad, train.LeNet(), 64, "prisma", 1); err == nil {
		t.Error("bad policy accepted")
	}
	// A profile the scale empties.
	bad = cal
	bad.Profile, _ = dataset.ProfileByName("mnist")
	bad.Scale = 1e-6
	if _, err := RunTF(bad, train.LeNet(), 64, "prisma", 1); err == nil {
		t.Error("empty dataset split accepted")
	}
	// Broken model.
	if _, err := RunTF(cal, train.Model{Name: "x"}, 64, "tf-baseline", 1); err == nil {
		t.Error("bad model accepted")
	}
	// Same propagation on the Torch side.
	bad = cal
	bad.TorchPrismaStage.MaxBufferCapacity = 0
	if _, err := RunTorch(bad, train.LeNet(), 64, 2, "prisma", 1); err == nil {
		t.Error("bad torch stage config accepted")
	}
	bad = cal
	bad.TorchPrefetchFactor = 0
	if _, err := RunTorch(bad, train.LeNet(), 64, 2, "pytorch", 1); err == nil {
		t.Error("bad prefetch factor accepted")
	}
}

func TestForEachParallelAndSequential(t *testing.T) {
	for _, par := range []int{0, 1, 4} {
		sum := make([]int, 10)
		if err := forEach(par, 10, func(i int) error {
			sum[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range sum {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d", par, i, v)
			}
		}
	}
	// Errors propagate from any index.
	err := forEach(4, 8, func(i int) error {
		if i == 5 {
			return errFive
		}
		return nil
	})
	if err != errFive {
		t.Fatalf("err = %v, want errFive", err)
	}
}

var errFive = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "five" }

func TestPaperScaleExtrapolation(t *testing.T) {
	cal := Default()
	cal.Scale = 0.25
	if got := cal.PaperScale(time.Second); got != 4*time.Second {
		t.Fatalf("PaperScale = %v, want 4s", got)
	}
}

func TestWriteTableAlignment(t *testing.T) {
	var sb strings.Builder
	err := WriteTable(&sb, []string{"a", "bbbb"}, [][]string{{"xxxxx", "y"}, {"z", "w"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a    ") || !strings.Contains(lines[0], "bbbb") {
		t.Errorf("header misaligned: %q", lines[0])
	}
}

func TestCSVAndJSONExports(t *testing.T) {
	cells2 := []Fig2Cell{{
		Model: "lenet", Batch: 64, Setup: "prisma",
		Summary:    metrics.Summary{Mean: 2 * time.Second, Stddev: 10 * time.Millisecond},
		PaperScale: 1024 * time.Second, Reduction: 0.53,
	}}
	var sb strings.Builder
	if err := WriteFig2CSV(&sb, cells2); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "fig2,lenet,64,prisma,2.000000,0.010000,1024.000000,0.5300") {
		t.Errorf("fig2 csv:\n%s", got)
	}

	sb.Reset()
	series := []Fig3Series{{Model: "lenet", Setup: "prisma", MaxThreads: 3,
		CDF: []metrics.CDFPoint{{Value: 3, Fraction: 0.9, CumFraction: 1}}}}
	if err := WriteFig3CSV(&sb, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig3,lenet,prisma,3,0.900000,1.000000") {
		t.Errorf("fig3 csv:\n%s", sb.String())
	}

	sb.Reset()
	cells4 := []Fig4Cell{{Model: "lenet", Workers: 8, Setup: "pytorch",
		Summary: metrics.Summary{Mean: time.Second}, PaperScale: 512 * time.Second}}
	if err := WriteFig4CSV(&sb, cells4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig4,lenet,8,pytorch,1.000000,0.000000,512.000000") {
		t.Errorf("fig4 csv:\n%s", sb.String())
	}

	sb.Reset()
	bundle := Results{Scale: 0.5, Epochs: 10, Runs: 5, Seed: 1, Fig2: cells2, Fig3: series, Fig4: cells4}
	if err := bundle.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scale": 0.5`, `"fig2"`, `"fig3"`, `"fig4"`, `"Reduction": 0.53`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("json missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	cells := []Fig2Cell{{
		Model: "lenet", Batch: 64, Setup: "prisma",
		Summary: metrics.Summary{Mean: time.Second}, PaperScale: 512 * time.Second, Reduction: 0.5,
	}}
	var sb strings.Builder
	if err := RenderFig2(&sb, cells); err != nil || !strings.Contains(sb.String(), "lenet") {
		t.Errorf("RenderFig2: %v, %q", err, sb.String())
	}
	sb.Reset()
	series := []Fig3Series{{Model: "lenet", Setup: "prisma", MaxThreads: 4,
		CDF: []metrics.CDFPoint{{Value: 4, Fraction: 1, CumFraction: 1}}, FinalTuning: "t=4 N=64"}}
	if err := RenderFig3(&sb, series); err != nil || !strings.Contains(sb.String(), "t=4") {
		t.Errorf("RenderFig3: %v, %q", err, sb.String())
	}
	sb.Reset()
	f4 := []Fig4Cell{{Model: "lenet", Workers: 8, Setup: "pytorch",
		Summary: metrics.Summary{Mean: time.Second}, PaperScale: 512 * time.Second}}
	if err := RenderFig4(&sb, f4); err != nil || !strings.Contains(sb.String(), "pytorch") {
		t.Errorf("RenderFig4: %v, %q", err, sb.String())
	}
	sb.Reset()
	ab := []AblationRow{{Sweep: "static-t", Value: "t=4", Elapsed: time.Second, PaperScale: 512 * time.Second, MaxThreads: 4}}
	if err := RenderAblation(&sb, "Ablation", ab); err != nil || !strings.Contains(sb.String(), "t=4") {
		t.Errorf("RenderAblation: %v, %q", err, sb.String())
	}
}

// TestShardSweepScalesAndIsDeterministic is the tentpole acceptance
// criterion: at 8 consumers with the PyTorch calibration's serialized
// access cost, 8 shards must deliver at least 2x the aggregate Put+Take
// throughput of the single-shard buffer — and the whole sweep must be
// virtual-time deterministic across runs (the K=1 cell is the paper's
// original shared-buffer behavior).
func TestShardSweepScalesAndIsDeterministic(t *testing.T) {
	cal := Default()
	run := func() []ShardSweepRow {
		rows, err := RunShardSweep(cal, []int{1, 8}, []int{8}, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	rows := run()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	k1, k8 := rows[0], rows[1]
	if k1.Shards != 1 || k8.Shards != 8 {
		t.Fatalf("unexpected row order: %+v", rows)
	}
	// K=1 fully serializes: makespan is exactly ops x access cost.
	wantSerial := time.Duration(2*8*50) * cal.TorchPrismaStage.BufferAccessCost
	if k1.Makespan != wantSerial {
		t.Fatalf("K=1 makespan %v, want fully serialized %v", k1.Makespan, wantSerial)
	}
	if k8.OpsPerSec < 2*k1.OpsPerSec {
		t.Fatalf("K=8 throughput %.0f < 2x K=1 %.0f", k8.OpsPerSec, k1.OpsPerSec)
	}
	again := run()
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("sweep not deterministic: %+v vs %+v", rows[i], again[i])
		}
	}
}

func TestRenderShardSweep(t *testing.T) {
	var sb strings.Builder
	rows := []ShardSweepRow{{Shards: 8, Consumers: 8, Makespan: 22 * time.Millisecond, OpsPerSec: 145455, Speedup: 8}}
	if err := RenderShardSweep(&sb, "Buffer shards", rows); err != nil ||
		!strings.Contains(sb.String(), "K=8") || !strings.Contains(sb.String(), "8.00x") {
		t.Errorf("RenderShardSweep: %v, %q", err, sb.String())
	}
}
