package fairness

import (
	"fmt"
	"sort"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// Demand is how the arbiter observes a tenant: a cumulative request count
// (reads issued so far). The arbiter differentiates it per interval to
// estimate demand.
type Demand func() int64

// tenant is one job under arbitration.
type tenant struct {
	id     string
	weight float64
	bucket *TokenBucket
	demand Demand

	lastCount int64
	lastRate  float64 // measured requests/s over the last interval
}

// Arbiter divides a shared device's request capacity across tenants by
// weighted max-min fairness: tenants demanding less than their fair share
// keep their demand; the slack is redistributed to the rest by weight. It
// is a control-plane policy in the paper's sense — it has the system-wide
// visibility individual DL jobs lack.
type Arbiter struct {
	env      conc.Env
	capacity float64 // total requests/s to distribute
	headroom float64 // over-allocation factor so estimates do not starve tenants

	mu      conc.Mutex
	tenants map[string]*tenant
	order   []string
	loop    conc.TickLoop
}

// NewArbiter creates an arbiter over a device capacity (requests/s).
func NewArbiter(env conc.Env, capacity float64) (*Arbiter, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("fairness: non-positive capacity %v", capacity)
	}
	return &Arbiter{
		env:      env,
		capacity: capacity,
		headroom: 1.05,
		mu:       env.NewMutex(),
		tenants:  make(map[string]*tenant),
	}, nil
}

// Register adds a tenant with its weight, throttle bucket, and demand
// probe.
func (a *Arbiter) Register(id string, weight float64, bucket *TokenBucket, demand Demand) error {
	if weight <= 0 {
		return fmt.Errorf("fairness: non-positive weight %v for %q", weight, id)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.tenants[id]; dup {
		return fmt.Errorf("fairness: tenant %q already registered", id)
	}
	a.tenants[id] = &tenant{id: id, weight: weight, bucket: bucket, demand: demand, lastCount: demand()}
	a.order = append(a.order, id)
	return nil
}

// SetWeight adjusts a registered tenant's weight; the new split takes
// effect at the next Tick.
func (a *Arbiter) SetWeight(id string, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("fairness: non-positive weight %v for %q", weight, id)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[id]
	if !ok {
		return fmt.Errorf("fairness: tenant %q not registered", id)
	}
	t.weight = weight
	return nil
}

// Unregister removes a tenant; its bucket is opened wide (no policy).
func (a *Arbiter) Unregister(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[id]
	if !ok {
		return
	}
	t.bucket.SetRate(a.capacity)
	delete(a.tenants, id)
	for i, tid := range a.order {
		if tid == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

// Allocation reports the rate currently granted to a tenant.
func (a *Arbiter) Allocation(id string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[id]
	if !ok {
		return 0, false
	}
	return t.bucket.Rate(), true
}

// SetCapacity adjusts the total request rate the arbiter distributes — the
// graceful-degradation knob: while the backend is degraded the control
// plane scales the capacity down and every tenant's grant shrinks
// proportionally at the next Tick, instead of the pipeline collapsing.
func (a *Arbiter) SetCapacity(capacity float64) {
	if capacity <= 0 {
		return
	}
	a.mu.Lock()
	a.capacity = capacity
	a.mu.Unlock()
}

// Capacity reports the rate currently being distributed.
func (a *Arbiter) Capacity() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity
}

// Grant is the monitoring view of one tenant's arbitration state.
type Grant struct {
	ID       string
	Weight   float64
	Granted  float64 // rate currently set on the tenant's bucket
	Measured float64 // demand estimate from the last Tick (requests/s)
}

// Grants snapshots every registered tenant's grant in registration order.
func (a *Arbiter) Grants() []Grant {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Grant, 0, len(a.order))
	for _, id := range a.order {
		t := a.tenants[id]
		out = append(out, Grant{ID: id, Weight: t.weight, Granted: t.bucket.Rate(), Measured: t.lastRate})
	}
	return out
}

// Tick measures per-tenant demand over the elapsed interval and applies a
// weighted max-min allocation.
func (a *Arbiter) Tick(interval time.Duration) {
	if interval <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.tenants) == 0 {
		return
	}
	// Measure demand. A tenant running at (or near) its granted rate is
	// throttle-limited: its true demand is unknown but at least the grant,
	// so treat it as unbounded — otherwise a tenant suppressed by device
	// contention or a low grant would look permanently satisfied and
	// max-min would never return its fair share (progressive filling needs
	// the "wants more" signal).
	for _, id := range a.order {
		t := a.tenants[id]
		count := t.demand()
		t.lastRate = float64(count-t.lastCount) / interval.Seconds()
		t.lastCount = count
		if t.lastRate >= 0.9*t.bucket.Rate() {
			t.lastRate = a.capacity / a.headroom // saturated: demand ≥ share
		}
	}
	alloc := a.maxMin()
	for id, rate := range alloc {
		a.tenants[id].bucket.SetRate(rate)
	}
}

// maxMin computes the weighted max-min allocation against a.capacity.
// A tenant whose measured demand is below its share is capped slightly
// above that demand (headroom lets growing demand reveal itself); the
// slack is re-split among the remaining tenants by weight. Caller holds
// a.mu.
func (a *Arbiter) maxMin() map[string]float64 {
	type item struct {
		id     string
		weight float64
		demand float64
	}
	items := make([]item, 0, len(a.tenants))
	for _, id := range a.order {
		t := a.tenants[id]
		items = append(items, item{id: id, weight: t.weight, demand: t.lastRate * a.headroom})
	}
	// Sort by demand-per-weight ascending so satisfied tenants freeze
	// first (standard progressive-filling argument).
	sort.Slice(items, func(i, j int) bool {
		return items[i].demand/items[i].weight < items[j].demand/items[j].weight
	})
	alloc := make(map[string]float64, len(items))
	remaining := a.capacity
	weightSum := 0.0
	for _, it := range items {
		weightSum += it.weight
	}
	for _, it := range items {
		share := remaining * it.weight / weightSum
		grant := share
		if it.demand < share {
			grant = it.demand
		}
		if grant < 1 {
			grant = 1 // never starve a tenant to zero rate
		}
		alloc[it.id] = grant
		remaining -= grant
		weightSum -= it.weight
		if remaining < 0 {
			remaining = 0
		}
	}
	return alloc
}

// Start runs the arbitration loop every interval until Stop.
func (a *Arbiter) Start(interval time.Duration) {
	a.loop.Start(a.env, "fairness-arbiter", interval, func() { a.Tick(interval) })
}

// Stop terminates the loop after its current sleep.
func (a *Arbiter) Stop() { a.loop.Stop() }
