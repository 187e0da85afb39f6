package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// Suite mode runs each workload in a child process of its own, so rusage,
// /proc/self/io and VmHWM are per workload and one workload's garbage
// cannot sit in the next one's peak RSS.

// childEnv marks a process as a suite child. The benchmark binary ignores
// it; the test binary's TestMain uses it to act as the benchmark.
const childEnv = "PRISMA_BENCH_CHILD"

// runChild runs one workload in a child process, echoes its table to
// stdout and returns its result line.
func runChild(cfg config, w workload, trace int, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-data", cfg.data,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	fmt.Fprintf(stdout, "== %s (trace %d)\n%s", w.name, trace, out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): no result line: %v (%v)", w.name, trace, err, runErr)
	}
	return res, nil
}

// suiteDoc is the `-out` document.
type suiteDoc struct {
	Go        string                     `json:"go"`
	OS        string                     `json:"os"`
	Arch      string                     `json:"arch"`
	CPUs      int                        `json:"cpus"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func runSuite(cfg config, stdout, stderr io.Writer) int {
	doc := suiteDoc{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Workloads: make(map[string]workloadResults, len(workloads)),
	}
	ok := true
	for _, w := range workloads {
		e2e, err := runChild(cfg, w, 0, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		layers, err := runChild(cfg, w, 1, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ok = ok && e2e.Correct && layers.Correct
		doc.Workloads[w.name] = workloadResults{EndToEnd: e2e, PerLayer: layers}
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: some reads failed or did not match ground truth")
		return 1
	}
	return 0
}

// runSelfcheck runs the end-to-end suite twice back to back on the same
// code and fails if any cell moved by more than its bound: the benchmark's
// own test that its bounds are wider than its noise.
func runSelfcheck(cfg config, stdout, stderr io.Writer) int {
	var runs [2]map[string]result
	for i := range runs {
		runs[i] = make(map[string]result, len(workloads))
		for _, w := range workloads {
			res, err := runChild(cfg, w, 0, io.Discard, stderr)
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: selfcheck run %d of %s failed: %v\n", i+1, w.name, err)
				return 1
			}
			runs[i][w.name] = res
		}
	}
	fmt.Fprintf(stdout, "second run / first run, per cell (* = beyond the bound)\n%-25s", "")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %13s", w.name)
	}
	fmt.Fprintln(stdout)
	exceeded := 0
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-17s ±%5.1f%%", d.Name, d.Bound*100)
		for _, w := range workloads {
			r := ratio(runs[1][w.name].Metrics[d.Name].Value, runs[0][w.name].Metrics[d.Name].Value)
			mark := " "
			if math.Abs(r-1) > d.Bound {
				mark = "*"
				exceeded++
			}
			fmt.Fprintf(stdout, " %12.3f%s", r, mark)
		}
		fmt.Fprintln(stdout)
	}
	if exceeded > 0 {
		fmt.Fprintf(stderr, "bench: selfcheck: %d cells differ by more than their bound\n", exceeded)
		return 1
	}
	return 0
}
