// Package obs is PRISMA's sample-lifecycle tracing subsystem: a span-based,
// env-clock-driven tracer that follows one sample through the data plane —
// FIFO pop, storage read (with retry/breaker annotations), buffer park,
// consumer take, IPC delivery — and turns the spans (or the stage's
// cumulative wait counters) into a latency-attribution report telling the
// control plane whether an epoch was storage-bound, buffer-capacity-bound,
// consumer-bound, or IPC-bound.
//
// All timestamps come from a conc.Env clock and the head-sampling decision
// comes from a seeded generator, so sim-mode runs are fully deterministic:
// the same seed and workload produce byte-identical span streams.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// Lifecycle stage names. A sampled sample emits at most one span per stage;
// a sampled consumer read emits consumer-wait (and ipc/ipc-serve when the
// read crosses the UNIX socket).
const (
	StageFIFOPop      = "fifo-pop"      // plan submission -> producer pop
	StageStorageRead  = "storage-read"  // producer's backend read
	StageBufferPark   = "buffer-park"   // producer blocked on a full shard
	StageConsumerWait = "consumer-wait" // consumer blocked in Take
	StageIPC          = "ipc"           // client-side socket round trip
	StageIPCServe     = "ipc-serve"     // server-side request handling

	// Control-plane plan-lifecycle spans (name is "epoch-<id>").
	StagePlanSubmit  = "plan-submit"  // one epoch submission (Size = plan length)
	StageEpochCancel = "epoch-cancel" // one epoch cancellation (Size = entries dropped)

	// Serving-chain spans: the memory hierarchy (the tier and the shared
	// cache are one layer; the hit/miss/coalesce spans keep the cache's
	// names), the transparent codec, and the tenant gate.
	StageCacheHit       = "sharedcache-hit"      // resident hit, or a joined read handed its payload
	StageCacheMiss      = "sharedcache-miss"     // single-flight leader's backend fetch
	StageCacheCoalesce  = "sharedcache-coalesce" // joined reader waiting on the leader's fetch
	StageTierPromote    = "tier-promote"         // read-triggered fast-tier admission
	StageTierWarm       = "tier-warm"            // plan-driven prefetch into the tier
	StageDecompress     = "tier-decompress"      // transparent payload decode
	StageTenantThrottle = "tenant-throttle"      // admission-gate rate/byte wait
	StageTenantShed     = "tenant-shed"          // admission-gate load shed (Error set)

	// Cluster-fabric spans (multi-node placement): a read forwarded to the
	// sample's owner node, and the owner-side service of such a read.
	StagePeerRead  = "peer-read"  // requester-side forwarded read (Error set on peer failure)
	StagePeerServe = "peer-serve" // owner-side buffer service of a forwarded read

	// The I/O trace (the storage chain's recorder row): every read that
	// reaches the device, sampled or not, with no trace id.
	StageDeviceRead = "device-read"
)

// Span is one timed step of a sample's (or a read's) lifecycle, and the one
// record format: lifecycle span files and the I/O trace are both JSON lines
// of it (prisma-trace reads either).
type Span struct {
	// Trace groups the spans of one lifecycle. Sample-lifecycle spans
	// (fifo-pop, storage-read, buffer-park) carry the trace id assigned at
	// plan submission; read-side spans (consumer-wait, ipc, ipc-serve)
	// carry the consumer's trace id, propagated over the IPC frame header.
	Trace uint64 `json:"trace"`
	// Link joins a read-side span to the sample-lifecycle trace it
	// consumed, when the two differ.
	Link    uint64        `json:"link,omitempty"`
	Stage   string        `json:"stage"`
	Name    string        `json:"name"`
	At      time.Duration `json:"at"`
	Latency time.Duration `json:"latency"`
	Size    int64         `json:"size,omitempty"`
	// Shard is the buffer shard involved (buffer-park, consumer-wait).
	Shard int `json:"shard,omitempty"`
	// Retries and Breaker annotate storage-read spans with the resilient
	// backend's per-read detail.
	Retries int    `json:"retries,omitempty"`
	Breaker string `json:"breaker,omitempty"`
	// StorageWait and BufferWait split a consumer-wait span's latency into
	// the portion caused by the backend read and the portion caused by
	// buffer capacity delaying the read's start (see Attribute).
	StorageWait time.Duration `json:"storage_wait,omitempty"`
	BufferWait  time.Duration `json:"buffer_wait,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// End reports the span's completion time.
func (s Span) End() time.Duration { return s.At + s.Latency }

// Ctx is the span context threaded through the data plane alongside a
// sample or a read. The zero Ctx is "not sampled".
type Ctx struct {
	Trace   uint64
	Sampled bool
}

// TracerOptions configures a Tracer. The zero value disables sampling but
// keeps the tracer usable (sampling can be raised at runtime).
type TracerOptions struct {
	// Sampling is the head-sampling probability in [0, 1]: each new trace
	// (one per planned sample, one per consumer read) is kept with this
	// probability. 0 records nothing; 1 records everything.
	Sampling float64
	// RingSize bounds the per-stage span ring (default 4096). When a ring
	// is full the oldest span is overwritten.
	RingSize int
	// Seed drives the deterministic sampling decision and namespaces trace
	// ids (ids are Seed<<32 | sequence), so spans from different tracers —
	// e.g. an IPC client and the server — cannot collide. Default 1.
	Seed int64
}

// DefaultRingSize is the per-stage span ring capacity when unset.
const DefaultRingSize = 4096

// Tracer assigns trace contexts and collects spans into bounded per-stage
// rings. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops), so instrumentation sites need no nil checks.
type Tracer struct {
	env  conc.Env
	size int
	base uint64

	// samplingBits mirrors sampling (math.Float64bits) so the sampling-off
	// fast path in StartTrace never touches the mutex: the serving chain
	// draws a context per read, and a shared lock there is contention the
	// ≤5% overhead gate can see.
	samplingBits atomic.Uint64

	mu       conc.Mutex
	sampling float64
	rng      *rand.Rand
	seq      uint64
	rings    map[string]*spanRing
}

// spanRing is a bounded overwrite-oldest span buffer.
type spanRing struct {
	buf   []Span
	next  int
	total int
}

func (r *spanRing) add(s Span) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
}

// spans returns the ring's contents, oldest first.
func (r *spanRing) spans() []Span {
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// NewTracer builds a tracer on env.
func NewTracer(env conc.Env, opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	t := &Tracer{
		env:      env,
		size:     opts.RingSize,
		base:     uint64(opts.Seed) << 32,
		mu:       env.NewMutex(),
		sampling: clampProb(opts.Sampling),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		rings:    make(map[string]*spanRing),
	}
	t.samplingBits.Store(math.Float64bits(t.sampling))
	return t
}

// clampProb bounds a sampling probability to [0, 1]; NaN samples nothing.
func clampProb(p float64) float64 {
	if !(p >= 0) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Now reports the tracer's clock (zero on a nil tracer).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.env.Now()
}

// Sampling reports the current head-sampling probability.
func (t *Tracer) Sampling() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.samplingBits.Load())
}

// SetSampling adjusts the head-sampling probability at runtime (control
// knob: Options, and the control table's sampling key). Clamped to [0, 1],
// NaN to 0.
func (t *Tracer) SetSampling(p float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sampling = clampProb(p)
	t.samplingBits.Store(math.Float64bits(t.sampling))
	t.mu.Unlock()
}

// StartTrace makes the head-sampling decision for a new trace and assigns
// its id. Unsampled traces get the zero Ctx, so downstream Record calls
// no-op.
func (t *Tracer) StartTrace() Ctx {
	if t == nil {
		return Ctx{}
	}
	// Lock-free fast path: with sampling off (the default in production)
	// drawing a context costs one atomic load, not a shared lock.
	if math.Float64frombits(t.samplingBits.Load()) <= 0 {
		return Ctx{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sampling <= 0 {
		return Ctx{}
	}
	if t.sampling < 1 && t.rng.Float64() >= t.sampling {
		return Ctx{}
	}
	t.seq++
	return Ctx{Trace: t.base | t.seq, Sampled: true}
}

// Record appends a span to its stage's ring. Spans with a zero trace id
// (unsampled) are dropped.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == 0 {
		return
	}
	t.mu.Lock()
	r := t.rings[s.Stage]
	if r == nil {
		r = &spanRing{buf: make([]Span, 0, t.size)}
		t.rings[s.Stage] = r
	}
	r.add(s)
	t.mu.Unlock()
}

// Dropped reports how many spans were overwritten because their stage ring
// was full.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.rings {
		if over := r.total - len(r.buf); over > 0 {
			n += over
		}
	}
	return n
}

// Spans returns every retained span, ordered by start time (ties broken by
// stage name, then trace id, for deterministic output).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	for _, r := range t.rings {
		out = append(out, r.spans()...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// SpansFor returns the retained spans of one stage, oldest first.
func (t *Tracer) SpansFor(stage string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rings[stage]
	if r == nil {
		return nil
	}
	return r.spans()
}

// Export writes the retained spans as JSON lines (one span per line) —
// the interchange format prisma-trace consumes.
func (t *Tracer) Export(w io.Writer) error {
	return WriteSpans(w, t.Spans())
}

// WriteSpans serializes spans as JSON lines.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a JSON-lines span file. A line with no stage is one of an
// I/O trace written before the trace was a span file, whose op tags what it
// recorded: a read ("read" or no op) is kept, a metadata lookup ("size") is
// no read and is dropped.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var l struct {
			Span
			Op string `json:"op"`
		}
		if err := dec.Decode(&l); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		if l.Stage == "" && l.Op != "" && l.Op != "read" {
			continue
		}
		out = append(out, l.Span)
	}
}
