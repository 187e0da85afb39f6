// Package fairness implements the multi-tenant access-coordination
// policies the paper motivates (§II "partial visibility", §VII "it would
// be interesting to explore and introduce performance isolation and
// resource fairness policies"): a token-bucket rate limiter and a
// control-plane arbiter that divides shared-device capacity across jobs by
// weighted max-min fairness — the system-wide coordination a
// framework-intrinsic optimization cannot provide.
package fairness

import (
	"fmt"
	"math"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// TokenBucket is a rate limiter over a conc.Env clock: tokens refill at
// Rate per second up to Burst; Acquire blocks until its tokens are
// available. Safe for concurrent use.
type TokenBucket struct {
	env conc.Env
	mu  conc.Mutex

	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a full bucket. rate and burst must be positive.
func NewTokenBucket(env conc.Env, rate, burst float64) (*TokenBucket, error) {
	if rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("fairness: rate %v and burst %v must be positive", rate, burst)
	}
	return &TokenBucket{env: env, mu: env.NewMutex(), rate: rate, burst: burst, tokens: burst, last: env.Now()}, nil
}

// refill advances the bucket to now. Caller holds mu.
func (b *TokenBucket) refill(now time.Duration) {
	dt := (now - b.last).Seconds()
	if dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
}

// Acquire blocks until n tokens are available and consumes them. n may
// exceed the burst; the debt is simply paid over time.
func (b *TokenBucket) Acquire(n float64) {
	if n <= 0 {
		return
	}
	for {
		now := b.env.Now()
		b.mu.Lock()
		b.refill(now)
		if b.tokens >= n {
			b.tokens -= n
			b.mu.Unlock()
			return
		}
		deficit := n - b.tokens
		// Consume what is there and wait out the deficit; concurrent
		// acquirers serialize naturally through the shared deficit.
		b.tokens = 0
		n = deficit
		rate := b.rate
		b.mu.Unlock()
		wait := time.Duration(deficit / rate * float64(time.Second))
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		b.env.Sleep(wait)
	}
}

// TryAcquire consumes n tokens if they are available right now, without
// blocking. When they are not, it reports how long the caller would have to
// wait for the deficit to refill at the current rate — the retry-after hint
// admission control hands back to a shed client. The bucket is not charged
// on failure.
func (b *TokenBucket) TryAcquire(n float64) (ok bool, wait time.Duration) {
	if n <= 0 {
		return true, 0
	}
	now := b.env.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	wait = time.Duration((n - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Microsecond {
		wait = time.Microsecond
	}
	return false, wait
}

// Charge deducts n tokens immediately, allowing the balance to go negative
// (debt). It never blocks: byte budgets are charged after a read completes,
// when the size is finally known, and the debt throttles subsequent
// acquisitions until the refill pays it off.
func (b *TokenBucket) Charge(n float64) {
	if n <= 0 {
		return
	}
	now := b.env.Now()
	b.mu.Lock()
	b.refill(now)
	b.tokens -= n
	b.mu.Unlock()
}

// AwaitNonNegative blocks until the bucket's balance is non-negative — the
// debt-settlement wait paired with Charge.
func (b *TokenBucket) AwaitNonNegative() {
	for {
		now := b.env.Now()
		b.mu.Lock()
		b.refill(now)
		debt := -b.tokens
		rate := b.rate
		b.mu.Unlock()
		if debt <= 0 {
			return
		}
		wait := time.Duration(debt / rate * float64(time.Second))
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		b.env.Sleep(wait)
	}
}

// DebtWait reports how long until the balance refills to non-negative —
// zero when not in debt. It is the retry-after hint for a request shed on
// an exhausted byte budget.
func (b *TokenBucket) DebtWait() time.Duration {
	now := b.env.Now()
	b.mu.Lock()
	b.refill(now)
	debt := -b.tokens
	rate := b.rate
	b.mu.Unlock()
	if debt <= 0 {
		return 0
	}
	return time.Duration(debt / rate * float64(time.Second))
}

// InDebt reports a negative balance (bytes consumed ahead of the budget).
func (b *TokenBucket) InDebt() bool {
	now := b.env.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	return b.tokens < 0
}

// SetRate adjusts the refill rate (control-plane knob).
func (b *TokenBucket) SetRate(rate float64) {
	if rate <= 0 {
		return
	}
	b.mu.Lock()
	b.refill(b.env.Now())
	b.rate = rate
	b.mu.Unlock()
}

// Rate reports the current refill rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}
