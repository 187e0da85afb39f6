package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The suite starts one child process per workload from os.Executable(),
// which under `go test` is this test binary: act as the benchmark then.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// BENCHMARK.json is generated from the tables in metrics.go
// (`go run . -contract > ../BENCHMARK.json`) and must stay identical to them.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkContract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, contract()) {
		t.Error("BENCHMARK.json differs from metrics.go; regenerate it with `go run . -contract > ../BENCHMARK.json`")
	}
}

// The limits the benchmark contract puts on names, units, counts and bounds.
func TestContractLimits(t *testing.T) {
	c := contract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is in the contract but cannot be run", w.Name)
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("%d workloads in the contract, %d runnable", len(c.Workloads), len(workloads))
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
}

// The smoke run asserts structure only, never a timing: every workload
// emits every contract name exactly once and no read fails.
func TestSmokeSuite(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "7", "-data", filepath.Join(dir, "data"), "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke suite exited %d\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc suiteDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// Table lines are "name value unit": count how often each name was printed.
	printed := map[string]int{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && !strings.HasPrefix(line, "{") && !strings.HasPrefix(line, "==") {
			printed[f[0]]++
		}
	}
	for _, w := range workloadDefs {
		res, ok := doc.Workloads[w.Name]
		if !ok {
			t.Errorf("%s: no result", w.Name)
			continue
		}
		for _, part := range []struct {
			label string
			res   result
			defs  []metricDef
		}{{"end_to_end", res.EndToEnd, endToEnd}, {"per_layer", res.PerLayer, perLayer}} {
			if !part.res.Correct || part.res.Failed != 0 || part.res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.Name, part.label, part.res.Correct, part.res.Attempted, part.res.Failed)
			}
			if len(part.res.Metrics) != len(part.defs) {
				t.Errorf("%s %s: %d metrics, contract has %d", w.Name, part.label, len(part.res.Metrics), len(part.defs))
			}
			for _, d := range part.defs {
				if got, ok := part.res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s %s: metric %s missing or unit %q != %q", w.Name, part.label, d.Name, got.Unit, d.Unit)
				}
			}
		}
		if v := res.PerLayer.Metrics["bench.failed_frac"].Value; v != 0 {
			t.Errorf("%s: bench.failed_frac = %v", w.Name, v)
		}
		if v := res.PerLayer.Metrics["core.exactly_once_violations"].Value; v != 0 {
			t.Errorf("%s: core.exactly_once_violations = %v", w.Name, v)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if printed[d.Name] != len(workloadDefs) {
			t.Errorf("%s printed %d times for %d workloads", d.Name, printed[d.Name], len(workloadDefs))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "data", "spans", "chain_fit.csv")); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

// One flipped byte in one file must surface as failed reads and a non-zero
// exit, after the result line is printed.
func TestCorruptionIsReported(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	g, err := ensureDataset(data, datasetKinds["small"], smokeFiles, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Entries[g.Planned[17]]
	flipByte(t, filepath.Join(g.Dir, filepath.FromSlash(e.Name)), e.Size/2)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-workload", "sock_small", "-seed", "9", "-data", data}, &stdout, &stderr)
	if code == 0 {
		t.Error("exit code 0 for a corrupted dataset")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("no result line: %v\n%s", err, stdout.String())
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want a few failed reads", res.Correct, res.Failed, res.Attempted)
	}
}
