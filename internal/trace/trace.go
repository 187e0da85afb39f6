// Package trace records, serializes, analyzes, and replays storage I/O
// traces. A recorder wraps any storage.Backend and captures one event per
// read (timestamp, file, size, latency, outcome); traces serialize to
// JSON-lines for offline analysis, summarize into latency/throughput
// statistics, and replay against another backend — which turns a captured
// production workload into a repeatable benchmark input, the methodology
// HPC I/O studies rely on (paper §II's "I/O characterization" context).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/storage"
)

// Event is one recorded read.
type Event struct {
	// At is the request's start time on the recorder's clock.
	At time.Duration `json:"at"`
	// Name is the file read.
	Name string `json:"name"`
	// Size is the bytes transferred (0 on error; the reported length for
	// op "size").
	Size int64 `json:"size"`
	// Latency is the request's service duration.
	Latency time.Duration `json:"latency"`
	// Op distinguishes request kinds: "" (whole-file read), "size"
	// (metadata lookup), or "range" (byte-range read).
	Op string `json:"op,omitempty"`
	// Off and N are the byte-range parameters for op "range".
	Off int64 `json:"off,omitempty"`
	N   int64 `json:"n,omitempty"`
	// Error is the failure message, empty on success.
	Error string `json:"error,omitempty"`
}

// Event op tags.
const (
	OpSize  = "size"
	OpRange = "range"
)

// Trace is an ordered sequence of events.
type Trace struct {
	Events []Event
}

// Recorder wraps a backend and appends an Event per request — whole-file
// reads, metadata lookups, and byte-range reads alike (the latter two were
// historically a recording blind spot, which skewed replayed workloads
// toward bulk reads). It is safe for concurrent use; events are kept in
// completion order.
type Recorder struct {
	env   conc.Env
	inner storage.Backend

	mu     conc.Mutex
	events []Event
}

// NewRecorder wraps inner.
func NewRecorder(env conc.Env, inner storage.Backend) *Recorder {
	return &Recorder{env: env, inner: inner, mu: env.NewMutex()}
}

func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Read implements storage.Backend. A whole-file read records one event; a
// ranged request records one "range" event per constituent range (all
// sharing the request's start and latency) so replay and byte accounting
// see the same access stream a per-sample workload would produce. The
// recorder observes reads; payload ownership and the trace context flow
// through it untouched.
func (r *Recorder) Read(req storage.Request) (storage.Response, error) {
	start := r.env.Now()
	resp, err := r.inner.Read(req)
	ev := Event{At: start, Name: req.Name, Latency: r.env.Now() - start}
	if err != nil {
		ev.Error = err.Error()
	}
	if len(req.Ranges) == 0 {
		if err == nil {
			ev.Size = resp.Data.Size
		}
		r.record(ev)
		return resp, err
	}
	ev.Op = OpRange
	views := resp.Ranged(req)
	for i, rg := range req.Ranges {
		ev.Off, ev.N = rg.Off, rg.N
		if err == nil {
			ev.Size = views[i].Size
		}
		r.record(ev)
	}
	return resp, err
}

// Size implements storage.Backend, recording the lookup with op "size"
// (Size holds the reported length; no bytes move).
func (r *Recorder) Size(name string) (int64, error) {
	start := r.env.Now()
	n, err := r.inner.Size(name)
	ev := Event{At: start, Name: name, Size: n, Latency: r.env.Now() - start, Op: OpSize}
	if err != nil {
		ev.Error = err.Error()
		ev.Size = 0
	}
	r.record(ev)
	return n, err
}

// Trace snapshots the recorded events.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return &Trace{Events: out}
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Write serializes the trace as JSON lines.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines trace.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", len(t.Events)+1, err)
		}
		t.Events = append(t.Events, ev)
	}
	return t, nil
}

// Summary aggregates a trace.
type Summary struct {
	Events        int
	Errors        int
	Bytes         int64
	Duration      time.Duration // last completion − first start
	ReadsPerSec   float64
	MeanLatency   time.Duration
	P50, P95, P99 time.Duration
	MaxLatency    time.Duration
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Summary {
	s := Summary{Events: len(t.Events)}
	if s.Events == 0 {
		return s
	}
	lat := make([]time.Duration, 0, len(t.Events))
	var sum time.Duration
	first, last := t.Events[0].At, time.Duration(0)
	for _, ev := range t.Events {
		if ev.Error != "" {
			s.Errors++
		}
		if ev.Op != OpSize { // size lookups move no bytes
			s.Bytes += ev.Size
		}
		lat = append(lat, ev.Latency)
		sum += ev.Latency
		if ev.At < first {
			first = ev.At
		}
		if end := ev.At + ev.Latency; end > last {
			last = end
		}
		if ev.Latency > s.MaxLatency {
			s.MaxLatency = ev.Latency
		}
	}
	s.Duration = last - first
	if s.Duration > 0 {
		s.ReadsPerSec = float64(s.Events) / s.Duration.Seconds()
	}
	s.MeanLatency = sum / time.Duration(s.Events)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		idx := int(p*float64(len(lat))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return lat[idx]
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// ConcurrencyTimeline reports, per bucket of the given width, the maximum
// number of overlapping requests — a quick view of workload parallelism.
func (t *Trace) ConcurrencyTimeline(bucket time.Duration) []int {
	if bucket <= 0 || len(t.Events) == 0 {
		return nil
	}
	var end time.Duration
	for _, ev := range t.Events {
		if e := ev.At + ev.Latency; e > end {
			end = e
		}
	}
	n := int(end/bucket) + 1
	depth := make([]int, n)
	for _, ev := range t.Events {
		from := int(ev.At / bucket)
		to := int((ev.At + ev.Latency) / bucket)
		for b := from; b <= to && b < n; b++ {
			depth[b]++
		}
	}
	return depth
}

// Replay re-issues the trace's reads against backend on env, preserving
// inter-arrival times (scaled by speedup > 0; 2 = twice as fast). It
// returns the replay's own recorded trace for comparison.
func (t *Trace) Replay(env conc.Env, backend storage.Backend, speedup float64) (*Trace, error) {
	if speedup <= 0 {
		return nil, fmt.Errorf("trace: non-positive speedup %v", speedup)
	}
	if len(t.Events) == 0 {
		return &Trace{}, nil
	}
	rec := NewRecorder(env, backend)
	base := t.Events[0].At
	start := env.Now()
	wg := env.NewWaitGroup()
	wg.Add(len(t.Events))
	for i, ev := range t.Events {
		ev := ev
		env.Go(fmt.Sprintf("replay-%d", i), func() {
			defer wg.Done()
			due := start + time.Duration(float64(ev.At-base)/speedup)
			if delay := due - env.Now(); delay > 0 {
				env.Sleep(delay)
			}
			if ev.Op == OpSize {
				_, _ = rec.Size(ev.Name)
				return
			}
			req := storage.Request{Name: ev.Name}
			if ev.Op == OpRange {
				req.Ranges = []storage.Range{{Off: ev.Off, N: ev.N}}
			}
			// Replay discards payloads; release any pooled lease so a
			// pooled backend can be replayed against without leaking.
			resp, _ := rec.Read(req)
			resp.Release(req)
		})
	}
	wg.Wait()
	return rec.Trace(), nil
}
