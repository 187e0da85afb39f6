// Command bench is the repository's real-mode benchmark: it generates a
// dataset on disk from a seed, serves it through the public prisma surface
// (Open, ServeUnix, Dial, ReadSample), and reports what a training job would
// see plus what each layer costs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	data      string
	out       string
	smoke     bool
	selfcheck bool
	contract  bool
}

const (
	smokeFiles   = 256
	smokeSeconds = 0.3
)

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line; empty runs the whole suite, each workload in a child process")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the datasets and the epoch plans")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&cfg.trace, "trace", 0, "0: timed window, end-to-end metrics; 1: traced window and probe ladder, per-layer metrics")
	fs.StringVar(&cfg.data, "data", filepath.Join(".bench_build", "data"), "directory for datasets, sockets and span files")
	fs.StringVar(&cfg.out, "out", "", "suite mode: write every result as one JSON document to this file")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny datasets and windows: checks structure, not timing")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the end-to-end suite twice and fail if any cell differs by more than its bound")
	fs.BoolVar(&cfg.contract, "contract", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.smoke {
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			cfg.seconds = smokeSeconds
		}
	}
	switch {
	case cfg.contract:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(contract()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case cfg.selfcheck:
		return runSelfcheck(cfg, stdout, stderr)
	case cfg.workload == "":
		return runSuite(cfg, stdout, stderr)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	var (
		res result
		err error
	)
	if cfg.trace == 0 {
		res, err = runTimed(cfg, w)
	} else {
		res, err = runTraced(cfg, w, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	unstable []string
}

// newResult attaches units to values. Every name in defs must have a value:
// a missing cell is a bug in the benchmark, reported instead of printed as 0.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64, unstable []string) (result, error) {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
		unstable:  unstable,
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%d values for %d metrics", len(values), len(defs))
	}
	return res, nil
}

// print writes every metric by name with its unit, then the result line.
func (r result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mark := ""
		if slices.Contains(r.unstable, name) {
			mark = "  (unstable)"
		}
		fmt.Fprintf(w, "%-46s %16.4f %s%s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit, mark)
	}
	line, _ := json.Marshal(r) // a map of finite floats cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

func (cfg config) files(kind datasetKind) int {
	if cfg.smoke {
		return smokeFiles
	}
	return kind.files
}

func (cfg config) sockDir() string { return filepath.Join(cfg.data, "sock") }

func (cfg config) window(share float64) time.Duration {
	return time.Duration(cfg.seconds * share * float64(time.Second))
}

// datasets generates (or reuses) the named kinds and reports the time spent.
func (cfg config) datasets(kinds ...string) (map[string]*groundTruth, time.Duration, error) {
	start := time.Now()
	sets := make(map[string]*groundTruth, len(kinds))
	for _, name := range kinds {
		kind := datasetKinds[name]
		g, err := ensureDataset(cfg.data, kind, cfg.files(kind), cfg.seed)
		if err != nil {
			return nil, 0, fmt.Errorf("dataset %s: %w", name, err)
		}
		sets[name] = g
	}
	return sets, time.Since(start), nil
}

// runTimed is the `-trace 0` run: one timed window of whole epochs with the
// span recorder off, then several timed set-ups. Set-up is timed after the
// window because the first second or two of a process that starts after an
// idle spell runs up to 40 % slower on the reference VM (the first child of
// -selfcheck showed it every time); the per-epoch medians of a ten-second
// window shrug that off, five 0.2 s set-ups do not.
func runTimed(cfg config, w workload) (result, error) {
	sets, _, err := cfg.datasets(w.dataset)
	if err != nil {
		return result{}, err
	}
	g := sets[w.dataset]
	opts := w.options(g.Dir, len(g.Entries))
	su, err := setup(w, opts, g, cfg.seed, cfg.sockDir(), nil)
	if err != nil {
		return result{}, err
	}
	win, err := su.r.runWindow(cfg.window(1), verifyQuick, nil)
	su.in.Close()
	if err != nil {
		return result{}, err
	}
	tally := readTally{attempted: su.attempts + win.attempted, failed: su.failed + win.failed}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		releaseMemory()
		su, err := setup(w, opts, g, cfg.seed, cfg.sockDir(), nil)
		if err != nil {
			return result{}, err
		}
		su.in.Close()
		setups = append(setups, su.dur.Seconds())
		tally.attempted += su.attempts
		tally.failed += su.failed
	}
	sum := win.summarize()
	values := map[string]float64{
		"samples_per_s":     sum.samplesPerS,
		"mb_per_s":          sum.mbPerS,
		"read_p50_us":       sum.p50us,
		"cpu_us_per_sample": sum.cpuUsPerSample,
		"peak_rss_mb":       win.after.peakRSSMiB, // read at the window's end: what follows is the harness's memory
		"setup_s":           median(setups),
	}
	return newResult(endToEnd, values, tally.attempted, tally.failed, nil)
}

// runTraced is the `-trace 1` run: one set-up, an untraced and a traced
// window on the same instance (their p50 ratio is the tracing overhead),
// then the probe ladder.
func runTraced(cfg config, w workload, stderr io.Writer) (result, error) {
	sets, datagen, err := cfg.datasets("small", "large", "med")
	if err != nil {
		return result{}, err
	}
	m := make(map[string]float64, len(perLayer))
	m["bench.datagen_s"] = datagen.Seconds()
	// Three spans per read; the estimate only avoids regrowth, append
	// handles a faster machine.
	tr := newTrace(1+numClients, int(cfg.window(0.2).Seconds()*300e3)+4096)
	var tally readTally
	if err := tracedWindows(cfg, w, sets[w.dataset], tr, &tally, m); err != nil {
		return result{}, err
	}
	spans := tr.all()
	totals := totalsByName(spans)
	m["bench.loop_self_us_per_sample"] = ratio(us(totals[spanClient].Self), m["bench.samples"])
	m["bench.verify_us_per_sample"] = ratio(us(totals[spanVerify].Total), m["bench.samples"])
	releaseMemory()
	unstable, err := runLadder(sets, cfg.seed, cfg.sockDir(), cfg.window(0.2), cfg.window(0.4), &tally, m)
	if err != nil {
		return result{}, err
	}
	m["bench.failed_frac"] = ratio(float64(tally.failed), float64(tally.attempted))

	spanFile := filepath.Join(cfg.data, "spans", w.name+".csv")
	if err := saveSpans(spanFile, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stderr, "bench: %s: %d spans written to %s\n", w.name, len(spans), spanFile)
	return newResult(perLayer, m, tally.attempted, tally.failed, unstable)
}

// tracedWindows sets the workload up once and fills m with every cell that
// comes from its two windows: counter deltas over the traced window, its
// per-epoch medians, and the state the instance is left in.
func tracedWindows(cfg config, w workload, g *groundTruth, tr *trace, tally *readTally, m map[string]float64) error {
	su, err := setup(w, w.options(g.Dir, len(g.Entries)), g, cfg.seed, cfg.sockDir(), tr)
	if err != nil {
		return err
	}
	defer su.in.Close()
	untraced, err := su.r.runWindow(cfg.window(0.2), verifyQuick, nil)
	if err != nil {
		return err
	}
	traced, err := su.r.runWindow(cfg.window(0.2), verifyFull, tr)
	if err != nil {
		return err
	}
	tally.attempted += su.attempts + untraced.attempted + traced.attempted
	tally.failed += su.failed + untraced.failed + traced.failed

	attributionCells(m, su.in.p, numClients)
	m["dataset.scan_us_per_file"] = us(su.in.openDur) / float64(len(g.Entries))
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	m["proc.fds_end"] = float64(openFDs())

	sum, base := traced.summarize(), untraced.summarize()
	n := float64(traced.samples)
	layerCounters(m, traced.before, traced.after, traced.samples, int64(len(traced.epochs)))
	m["core.submit_us_per_entry"] = sum.submitUsPerEntry
	m["core.first_sample_ms"] = sum.firstSampleMs
	m["core.exactly_once_violations"] = math.Abs(float64(
		traced.after.stats.PlanDelivered - traced.before.stats.PlanDelivered - traced.planned))
	m["bench.samples"] = n
	m["bench.epochs"] = float64(len(traced.epochs))
	m["bench.epoch_cv"] = sum.epochCV
	m["bench.read_p99_us"] = base.p99us
	m["bench.read_p999_us"] = traced.pooledP999us()
	m["bench.trace_overhead_frac"] = ratio(sum.p50us, base.p50us) - 1
	return nil
}

func saveSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
