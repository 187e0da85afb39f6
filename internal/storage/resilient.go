package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
)

// ErrCircuitOpen reports a read shed by the circuit breaker without touching
// the wrapped backend.
var ErrCircuitOpen = errors.New("storage: circuit breaker open")

// ErrReadDeadline reports a read abandoned because it exceeded the
// per-attempt deadline. The underlying read may still complete; its result
// is discarded.
var ErrReadDeadline = errors.New("storage: read deadline exceeded")

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: healthy, all reads pass through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: shedding load; reads fail fast with ErrCircuitOpen until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; one probe read at a time is
	// admitted to test whether the backend healed.
	BreakerHalfOpen
)

// String renders the state for logs and monitoring snapshots.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ResilienceConfig parameterizes a ResilientBackend. Zero fields take the
// DefaultResilienceConfig values, except BreakerThreshold and ReadDeadline
// where zero keeps the feature disabled only via the explicit constructors
// (see withDefaults).
type ResilienceConfig struct {
	// MaxAttempts is the total number of tries per read, including the
	// first (1 = no retry).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// multiplies it by BackoffFactor, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// BackoffFactor is the exponential growth factor (>= 1).
	BackoffFactor float64
	// JitterSeed seeds the deterministic jitter source: each backoff is
	// scaled by a factor in [0.5, 1.0) drawn from this stream, so sim-mode
	// runs with the same seed reproduce byte-identical schedules.
	JitterSeed int64
	// ReadDeadline bounds one attempt; 0 disables deadlines. An attempt
	// exceeding it fails with ErrReadDeadline and counts as a backend
	// failure.
	ReadDeadline time.Duration
	// BreakerThreshold is the number of consecutive failed attempts that
	// opens the circuit breaker; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// half-open probes.
	BreakerCooldown time.Duration
	// HalfOpenProbes is the number of consecutive successful probes that
	// close the breaker again.
	HalfOpenProbes int
}

// DefaultResilienceConfig returns the production defaults: three attempts
// with 2ms..100ms exponential backoff, breaker at eight consecutive
// failures, 250ms cooldown, no per-read deadline.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		MaxAttempts:      3,
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       100 * time.Millisecond,
		BackoffFactor:    2,
		JitterSeed:       1,
		BreakerThreshold: 8,
		BreakerCooldown:  250 * time.Millisecond,
		HalfOpenProbes:   1,
	}
}

// withDefaults fills zero values that have no meaningful zero semantics.
// BreakerThreshold and ReadDeadline keep their zeros (disabled).
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	d := DefaultResilienceConfig()
	if c.MaxAttempts == 0 {
		c.MaxAttempts = d.MaxAttempts
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = d.BaseBackoff
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = d.MaxBackoff
	}
	if c.BackoffFactor == 0 {
		c.BackoffFactor = d.BackoffFactor
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = d.JitterSeed
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = d.HalfOpenProbes
	}
	return c
}

// Validate reports whether the configuration is self-consistent.
func (c ResilienceConfig) Validate() error {
	if c.MaxAttempts < 1 {
		return fmt.Errorf("storage: MaxAttempts %d < 1", c.MaxAttempts)
	}
	if c.BaseBackoff < 0 || c.MaxBackoff < c.BaseBackoff {
		return fmt.Errorf("storage: bad backoff bounds [%v, %v]", c.BaseBackoff, c.MaxBackoff)
	}
	if c.BackoffFactor < 1 {
		return fmt.Errorf("storage: BackoffFactor %v < 1", c.BackoffFactor)
	}
	if c.ReadDeadline < 0 {
		return fmt.Errorf("storage: negative ReadDeadline")
	}
	if c.BreakerThreshold < 0 {
		return fmt.Errorf("storage: negative BreakerThreshold")
	}
	if c.BreakerThreshold > 0 && (c.BreakerCooldown <= 0 || c.HalfOpenProbes < 1) {
		return fmt.Errorf("storage: breaker needs positive cooldown and probes")
	}
	return nil
}

// ResilienceStats is the telemetry snapshot a ResilientBackend exports
// through the data plane's monitoring interface.
type ResilienceStats struct {
	Attempts         int64  // backend attempts issued (incl. retries)
	Retries          int64  // attempts beyond the first per read
	Failures         int64  // attempts that returned a retryable error
	Exhausted        int64  // reads that failed after all attempts
	DeadlineExceeded int64  // attempts abandoned at the read deadline
	FastFails        int64  // reads shed while the breaker was open
	BreakerOpens     int64  // closed/half-open -> open transitions
	State            string // current breaker state
	Degraded         bool   // breaker not closed: autotuner backs off
}

// ReadDetail is the per-read resilience annotation ResilientBackend puts on
// every Response: how many attempts the read cost and the breaker state
// observed at completion. The tracing subsystem attaches it to storage-read
// spans.
type ReadDetail struct {
	// Attempts is the number of backend attempts issued for this read
	// (0 when the breaker shed the read without touching the backend).
	Attempts int
	// Breaker is the breaker state at completion ("" when no breaker is
	// configured).
	Breaker string
}

// ResilientBackend wraps a Backend with per-read deadlines, bounded retries
// with exponential backoff and deterministic jitter, and a circuit breaker
// that sheds load after consecutive failures and probes before recovering.
// All waiting goes through the conc.Env, so sim-mode runs stay virtual-time
// and reproducible.
//
// Reads of files that do not exist (NotExistError) are treated as a
// permanent condition: they are returned immediately, are never retried,
// and count as breaker successes (the backend answered correctly).
type ResilientBackend struct {
	env   conc.Env
	inner Backend
	cfg   ResilienceConfig

	mu          conc.Mutex
	rng         *rand.Rand
	state       BreakerState
	consecFails int
	openedAt    time.Duration
	probing     bool // a half-open probe is in flight
	probeOK     int  // consecutive successful probes
	// healthy mirrors state == BreakerClosed && consecFails == 0, stored
	// under mu on every change to either, so admission, a success and the
	// state read of a healthy breaker take no lock.
	healthy atomic.Bool

	attempts     *metrics.Counter
	retries      *metrics.Counter
	failures     *metrics.Counter
	exhausted    *metrics.Counter
	deadlineHits *metrics.Counter
	fastFails    *metrics.Counter
	opens        *metrics.Counter
}

// NewResilientBackend wraps inner with the given resilience configuration.
func NewResilientBackend(env conc.Env, inner Backend, cfg ResilienceConfig) (*ResilientBackend, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &ResilientBackend{
		env:          env,
		inner:        inner,
		cfg:          cfg,
		mu:           env.NewMutex(),
		rng:          rand.New(rand.NewSource(cfg.JitterSeed)),
		attempts:     metrics.NewCounter(env),
		retries:      metrics.NewCounter(env),
		failures:     metrics.NewCounter(env),
		exhausted:    metrics.NewCounter(env),
		deadlineHits: metrics.NewCounter(env),
		fastFails:    metrics.NewCounter(env),
		opens:        metrics.NewCounter(env),
	}
	b.healthy.Store(true)
	return b, nil
}

// Config returns the effective (default-filled) configuration.
func (b *ResilientBackend) Config() ResilienceConfig { return b.cfg }

// Read serves req under the full resilience policy: breaker admission,
// per-attempt deadline, bounded retries with jittered exponential backoff.
// Leaves release every reference on failure, so a retried read never
// duplicates references. The response's Detail (filled on error too)
// reports the attempts actually issued and the breaker state at completion.
func (b *ResilientBackend) Read(req Request) (Response, error) {
	var lastErr error
	issued := 0
	for attempt := 1; ; attempt++ {
		if err := b.admit(); err != nil {
			b.fastFails.Inc()
			if lastErr != nil {
				err = fmt.Errorf("%w (last failure: %v)", ErrCircuitOpen, lastErr)
			}
			return Response{Detail: b.detail(issued)}, err
		}
		b.attempts.Inc()
		issued++
		resp, err := b.attemptOnce(req)
		if err == nil {
			b.onSuccess()
			resp.Detail = b.detail(issued)
			return resp, nil
		}
		var ne *NotExistError
		if errors.As(err, &ne) {
			// A missing file is a correct answer from a healthy backend,
			// not a device fault: no retry, no breaker penalty.
			b.onSuccess()
			return Response{Detail: b.detail(issued)}, err
		}
		b.failures.Inc()
		if errors.Is(err, ErrReadDeadline) {
			b.deadlineHits.Inc()
		}
		b.onFailure()
		lastErr = err
		if attempt >= b.cfg.MaxAttempts {
			b.exhausted.Inc()
			return Response{Detail: b.detail(issued)}, fmt.Errorf("storage: resilient: %d attempts failed: %w", attempt, err)
		}
		b.retries.Inc()
		b.env.Sleep(b.backoff(attempt))
	}
}

// detail builds the per-read annotation.
func (b *ResilientBackend) detail(issued int) ReadDetail {
	d := ReadDetail{Attempts: issued}
	if b.cfg.BreakerThreshold > 0 {
		d.Breaker = b.State().String()
	}
	return d
}

// attemptOnce issues one inner read, bounded by the configured per-attempt
// deadline. The deadline path lives in its own function so its closures do
// not move req to the heap on the common (no deadline) path.
func (b *ResilientBackend) attemptOnce(req Request) (Response, error) {
	if b.cfg.ReadDeadline <= 0 {
		return b.inner.Read(req)
	}
	return b.attemptDeadline(req)
}

// attemptDeadline runs the read on its own thread while the caller waits
// for completion or timer expiry, whichever comes first — the only way to
// bound a blocking read under both the real and the virtual-time
// environment. An expired attempt keeps running and releases its own
// payload when it finishes.
func (b *ResilientBackend) attemptDeadline(req Request) (Response, error) {
	mu := b.env.NewMutex()
	done := b.env.NewCond(mu)
	var (
		resp     Response
		err      error
		finished bool
		expired  bool
	)
	b.env.Go("resilient-read", func() {
		r, rerr := b.inner.Read(req)
		mu.Lock()
		if expired {
			// The caller already returned ErrReadDeadline; nobody will ever
			// see this result, so pooled payloads must be released here or
			// their buffers leak for the life of the process.
			mu.Unlock()
			r.Data.Release()
			return
		}
		resp, err, finished = r, rerr, true
		done.Broadcast()
		mu.Unlock()
	})
	b.env.Go("resilient-deadline", func() {
		b.env.Sleep(b.cfg.ReadDeadline)
		mu.Lock()
		expired = true
		done.Broadcast()
		mu.Unlock()
	})
	mu.Lock()
	defer mu.Unlock()
	for !finished && !expired {
		done.Wait()
	}
	if !finished {
		return Response{}, ErrReadDeadline
	}
	return resp, err
}

// backoff computes the sleep before retry number `attempt` (1-based), with
// deterministic jitter in [0.5, 1.0)× the exponential value.
func (b *ResilientBackend) backoff(attempt int) time.Duration {
	d := float64(b.cfg.BaseBackoff)
	for i := 1; i < attempt; i++ {
		d *= b.cfg.BackoffFactor
		if d >= float64(b.cfg.MaxBackoff) {
			d = float64(b.cfg.MaxBackoff)
			break
		}
	}
	b.mu.Lock()
	jitter := 0.5 + 0.5*b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(d * jitter)
}

// admit applies the breaker's admission decision for one attempt.
func (b *ResilientBackend) admit() error {
	if b.cfg.BreakerThreshold <= 0 || b.healthy.Load() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.env.Now()-b.openedAt < b.cfg.BreakerCooldown {
			return ErrCircuitOpen
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probing = true
		b.probeOK = 0
		return nil
	default: // BreakerHalfOpen
		if b.probing {
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// onSuccess records a healthy attempt.
func (b *ResilientBackend) onSuccess() {
	if b.cfg.BreakerThreshold <= 0 || b.healthy.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
		b.mirrorLocked()
	case BreakerHalfOpen:
		b.probing = false
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.consecFails = 0
			b.setStateLocked(BreakerClosed)
		}
	}
}

// onFailure records a failed attempt, opening the breaker at the threshold.
func (b *ResilientBackend) onFailure() {
	if b.cfg.BreakerThreshold <= 0 {
		return
	}
	now := b.env.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		b.mirrorLocked()
		if b.consecFails >= b.cfg.BreakerThreshold {
			b.setStateLocked(BreakerOpen)
			b.openedAt = now
			b.opens.Inc()
		}
	case BreakerHalfOpen:
		// The probe failed: back to open for another cooldown.
		b.probing = false
		b.probeOK = 0
		b.setStateLocked(BreakerOpen)
		b.openedAt = now
		b.opens.Inc()
	}
}

// setStateLocked transitions the breaker, keeping the healthy mirror in
// step. Caller holds b.mu.
func (b *ResilientBackend) setStateLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.mirrorLocked()
}

// mirrorLocked refreshes the healthy mirror. Caller holds b.mu.
func (b *ResilientBackend) mirrorLocked() {
	b.healthy.Store(b.state == BreakerClosed && b.consecFails == 0)
}

// State reports the breaker's current position.
func (b *ResilientBackend) State() BreakerState {
	if b.healthy.Load() {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ResilienceStats snapshots the telemetry (the stage's resilience source).
func (b *ResilientBackend) ResilienceStats() ResilienceStats {
	state := b.State()
	return ResilienceStats{
		Attempts:         b.attempts.Value(),
		Retries:          b.retries.Value(),
		Failures:         b.failures.Value(),
		Exhausted:        b.exhausted.Value(),
		DeadlineExceeded: b.deadlineHits.Value(),
		FastFails:        b.fastFails.Value(),
		BreakerOpens:     b.opens.Value(),
		State:            state.String(),
		Degraded:         state != BreakerClosed,
	}
}
