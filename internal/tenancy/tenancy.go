// Package tenancy is PRISMA's control-plane answer to the paper's §VII
// open problem — access coordination across concurrent, mutually oblivious
// DL jobs sharing one storage data plane. It binds the building blocks
// that already exist (fairness token buckets + max-min arbiter, the
// degraded-mode signal from the resilient backend) into a per-tenant
// admission gate on the serving path:
//
//   - every read is attributed to a tenant (established at IPC hello time;
//     untagged connections map to a default tenant);
//   - in normal operation the gate throttles: a read blocks briefly until
//     the tenant's arbiter-granted rate admits it (weighted max-min, so a
//     greedy tenant is squeezed to its share, never starving the rest);
//   - under overload (queue depth past the configured threshold) the gate
//     sheds instead of queueing: requests from over-budget tenants fail
//     fast with a typed, retryable OverloadError carrying a retry-after
//     hint, so clients back off instead of piling onto a saturated server;
//   - while the storage backend is degraded (circuit breaker open), the
//     distributable capacity is scaled down by DegradedFactor so every
//     tenant's grant shrinks proportionally — graceful, attributable
//     degradation rather than collapse.
//
// Sheds happen at admission, before any stage or plan state changes, which
// is what makes the otherwise at-most-once read safely retryable: a shed
// read provably did not execute.
package tenancy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/fairness"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// DefaultTenant is the identity assigned to connections that never send a
// hello frame.
const DefaultTenant = "default"

// The serving layer's defaults for Config.Capacity and Config.MaxQueueDepth
// when its options name none.
const (
	DefaultCapacity      = 10_000
	DefaultMaxQueueDepth = 4096
)

// ErrOverloaded is the sentinel for typed overload rejections:
// errors.Is(err, tenancy.ErrOverloaded) matches any *OverloadError.
var ErrOverloaded = errors.New("tenancy: server overloaded")

// OverloadError is the typed, retryable load-shed rejection. RetryAfter is
// the server's hint for when the tenant's budget will admit the request —
// the client's backoff honors it before resending.
type OverloadError struct {
	Tenant     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("tenancy: tenant %q over budget, retry after %v", e.Tenant, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for any OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Load is the saturation snapshot the manager evaluates each tick. The
// serving layer injects a probe (Config.Load) so the thresholds see live
// queue depth and the breaker's state; tests inject deterministic loads.
type Load struct {
	// QueueDepth is the number of requests queued or executing server-side.
	QueueDepth int
	// Degraded mirrors the resilient backend's circuit-breaker signal.
	Degraded bool
}

// Spec declares one tenant.
type Spec struct {
	// Name identifies the tenant (required, unique).
	Name string
	// Weight is the tenant's share weight for max-min arbitration
	// (default 1).
	Weight float64
	// BytesPerSecond is the tenant's byte budget; 0 means unmetered.
	// Bytes are charged after each read (when the size is known) and the
	// resulting debt throttles — or, under overload, sheds — later reads.
	BytesPerSecond float64
	// Secret, when non-empty, must be presented by the hello frame for a
	// connection to assume this identity.
	Secret string
	// SLO, when non-nil, installs a latency objective for the tenant: its
	// reads feed an env-clock burn-rate tracker whose OK/WARN/BREACH
	// transitions drive gate weight boosts and audited control actions.
	SLO *obs.SLOConfig
}

// Config tunes the manager.
type Config struct {
	// Capacity is the total request rate (reads/s) distributed across
	// tenants (required).
	Capacity float64
	// Burst bounds how far a tenant may briefly exceed its granted rate
	// (default Capacity/4, at least 1).
	Burst float64
	// TickInterval is the arbitration/overload evaluation period
	// (default 100ms).
	TickInterval time.Duration
	// DegradedFactor scales Capacity while the backend is degraded
	// (default 0.5).
	DegradedFactor float64
	// MaxQueueDepth is the saturation threshold on Load.QueueDepth;
	// 0 disables the check.
	MaxQueueDepth int
	// MaxRetryAfter clamps the retry-after hint handed to shed clients
	// (default 5s).
	MaxRetryAfter time.Duration
	// Load probes current saturation; nil means never overloaded (the
	// gate still throttles by rate and byte budgets).
	Load func() Load
	// SLOBoostFactor multiplies a tenant's arbitration weight while its
	// latency objective is breaching — the victim of a noisy neighbor gets
	// a bigger max-min share until its burn rate recovers (default 2).
	SLOBoostFactor float64
	// OnSLOAction, when non-nil, observes every SLO-driven control action
	// (breach boosts, recoveries, warns). The serving layer wires it into
	// the autotuner's decision audit log so the actions stay explainable.
	OnSLOAction func(SLOAction)
}

func (c Config) withDefaults() Config {
	if c.Burst <= 0 {
		c.Burst = c.Capacity / 4
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 100 * time.Millisecond
	}
	if c.DegradedFactor <= 0 || c.DegradedFactor > 1 {
		c.DegradedFactor = 0.5
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 5 * time.Second
	}
	if c.SLOBoostFactor <= 1 {
		c.SLOBoostFactor = 2
	}
	return c
}

// SLOAction is one SLO-driven control action, surfaced through
// Config.OnSLOAction for audit.
type SLOAction struct {
	Tenant string `json:"tenant"`
	// Rule names the action: "slo-breach" (weight boosted), "slo-recovered"
	// (boost removed), "slo-warn" (observed, no actuation).
	Rule         string        `json:"rule"`
	From         string        `json:"from"`
	To           string        `json:"to"`
	WeightBefore float64       `json:"weight_before"`
	WeightAfter  float64       `json:"weight_after"`
	Status       obs.SLOStatus `json:"status"`
}

// state is one tenant's runtime record.
type state struct {
	name   string
	weight float64 // base (operator-set) arbitration weight
	secret string
	// boosted marks an active SLO breach boost: the arbiter currently runs
	// this tenant at weight x SLOBoostFactor.
	boosted bool

	bucket      *fairness.TokenBucket // request-rate budget (arbiter-driven)
	bytes       *fairness.TokenBucket // byte budget, nil when unmetered
	bytesPerSec float64

	admitted  *metrics.Counter
	shed      *metrics.Counter
	bytesRead *metrics.Counter
	errors    *metrics.Counter
	latency   *metrics.BucketedHistogram // end-to-end read latency
}

// Manager is the tenant registry plus the admission-control gate. It
// implements core.TenantGate; the IPC server resolves each connection's
// identity (Authenticate) and the stage consults the gate per read.
type Manager struct {
	env conc.Env
	cfg Config
	arb *fairness.Arbiter
	slo *obs.SLOTracker

	mu         conc.Mutex
	tenants    map[string]*state
	overloaded bool
	loop       conc.TickLoop

	// sloMu makes an SLO evaluation and the boosts it applies one step
	// for Stats, which never shows a tenant in breach without its boost.
	sloMu conc.Mutex
}

// New builds a manager and registers the default tenant (weight 1, no
// byte budget, no secret).
func New(env conc.Env, cfg Config) (*Manager, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("tenancy: non-positive capacity %v", cfg.Capacity)
	}
	cfg = cfg.withDefaults()
	arb, err := fairness.NewArbiter(env, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		env:     env,
		cfg:     cfg,
		arb:     arb,
		slo:     obs.NewSLOTracker(env),
		mu:      env.NewMutex(),
		tenants: make(map[string]*state),
		sloMu:   env.NewMutex(),
	}
	if err := m.Register(Spec{Name: DefaultTenant}); err != nil {
		return nil, err
	}
	return m, nil
}

// Register adds a tenant. Until the first arbiter tick its bucket runs at
// the full capacity; the tick squeezes it to its max-min share.
func (m *Manager) Register(spec Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("tenancy: empty tenant name")
	}
	if spec.Weight == 0 {
		spec.Weight = 1
	}
	if err := checkKnobs(spec.Name, spec.Weight, spec.BytesPerSecond); err != nil {
		return err
	}
	bucket, err := fairness.NewTokenBucket(m.env, m.cfg.Capacity, m.cfg.Burst)
	if err != nil {
		return err
	}
	st := &state{
		name:      spec.Name,
		weight:    spec.Weight,
		secret:    spec.Secret,
		bucket:    bucket,
		admitted:  metrics.NewCounter(m.env),
		shed:      metrics.NewCounter(m.env),
		bytesRead: metrics.NewCounter(m.env),
		errors:    metrics.NewCounter(m.env),
		latency:   metrics.NewBucketedHistogram(m.env, nil),
	}
	if spec.BytesPerSecond > 0 {
		// Burst = one second of budget: post-hoc charging needs room to go
		// negative, and the debt model handles the rest.
		bb, err := fairness.NewTokenBucket(m.env, spec.BytesPerSecond, spec.BytesPerSecond)
		if err != nil {
			return err
		}
		st.bytes = bb
		st.bytesPerSec = spec.BytesPerSecond
	}
	m.mu.Lock()
	if _, dup := m.tenants[spec.Name]; dup {
		m.mu.Unlock()
		return fmt.Errorf("tenancy: tenant %q already registered", spec.Name)
	}
	m.tenants[spec.Name] = st
	m.mu.Unlock()
	if err := m.arb.Register(spec.Name, spec.Weight, bucket, st.admitted.Value); err != nil {
		m.mu.Lock()
		delete(m.tenants, spec.Name)
		m.mu.Unlock()
		return err
	}
	if spec.SLO != nil {
		m.slo.Set(spec.Name, *spec.SLO)
	}
	return nil
}

// SetSLO installs (or replaces) a tenant's latency objective at runtime.
func (m *Manager) SetSLO(name string, cfg obs.SLOConfig) error {
	if !m.Registered(name) {
		return fmt.Errorf("tenancy: tenant %q not registered", name)
	}
	m.slo.Set(name, cfg)
	return nil
}

// ClearSLO removes a tenant's latency objective (and any active boost).
func (m *Manager) ClearSLO(name string) {
	m.slo.Remove(name)
	m.mu.Lock()
	var base float64
	restore := false
	if st, ok := m.tenants[name]; ok && st.boosted {
		st.boosted = false
		base = st.weight
		restore = true
	}
	m.mu.Unlock()
	if restore {
		m.arb.SetWeight(name, base)
	}
}

// Unregister removes a tenant; its arbiter share flows back to the rest at
// the next tick. The default tenant cannot be removed.
func (m *Manager) Unregister(name string) error {
	if name == DefaultTenant {
		return fmt.Errorf("tenancy: cannot unregister the default tenant")
	}
	m.mu.Lock()
	_, ok := m.tenants[name]
	delete(m.tenants, name)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("tenancy: tenant %q not registered", name)
	}
	m.arb.Unregister(name)
	m.slo.Remove(name)
	return nil
}

// checkKnobs refuses a negative, NaN or infinite weight or byte budget: one
// non-finite weight would turn every tenant's grant into NaN at the next
// arbitration tick and wedge the gate.
func checkKnobs(name string, weight, bytesPerSecond float64) error {
	if !(weight >= 0 && bytesPerSecond >= 0) || math.IsInf(weight, 1) || math.IsInf(bytesPerSecond, 1) {
		return fmt.Errorf("tenancy: %q: weight %v and byte budget %v must be finite and >= 0", name, weight, bytesPerSecond)
	}
	return nil
}

// Registered reports whether name is a registered tenant.
func (m *Manager) Registered(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tenants[name]
	return ok
}

// SetTenant adjusts a tenant's weight and/or byte budget at runtime
// (control interface; zero leaves the respective knob unchanged).
func (m *Manager) SetTenant(name string, weight, bytesPerSecond float64) error {
	if err := checkKnobs(name, weight, bytesPerSecond); err != nil {
		return err
	}
	m.mu.Lock()
	st, ok := m.tenants[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("tenancy: tenant %q not registered", name)
	}
	if weight > 0 {
		if err := m.arb.SetWeight(name, weight); err != nil {
			return err
		}
		m.mu.Lock()
		// An operator-set weight becomes the new base and lands directly in
		// the arbiter, dropping any active SLO boost (it re-applies on the
		// tenant's next transition into breach).
		st.weight = weight
		st.boosted = false
		m.mu.Unlock()
	}
	if bytesPerSecond > 0 {
		m.mu.Lock()
		if st.bytes == nil {
			bb, err := fairness.NewTokenBucket(m.env, bytesPerSecond, bytesPerSecond)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			st.bytes = bb
		} else {
			st.bytes.SetRate(bytesPerSecond)
		}
		st.bytesPerSec = bytesPerSecond
		m.mu.Unlock()
	}
	return nil
}

// Authenticate resolves a hello frame to a tenant identity. An empty name
// maps to the default tenant. A known tenant with a secret requires the
// matching secret. An unknown tenant is auto-registered with defaults
// (weight 1, unmetered) — self-service identity, with the operator
// adjusting weights/budgets afterwards via SetTenant.
func (m *Manager) Authenticate(name, secret string) (string, error) {
	if name == "" {
		return DefaultTenant, nil
	}
	m.mu.Lock()
	st, ok := m.tenants[name]
	m.mu.Unlock()
	if !ok {
		if err := m.Register(Spec{Name: name, Secret: secret}); err != nil {
			// Lost a registration race: re-resolve as a known tenant.
			m.mu.Lock()
			st, ok = m.tenants[name]
			m.mu.Unlock()
			if !ok {
				return "", err
			}
		} else {
			return name, nil
		}
	}
	if st.secret != "" && st.secret != secret {
		return "", fmt.Errorf("tenancy: bad credentials for tenant %q", name)
	}
	return name, nil
}

// lookup resolves a tenant name to its state, falling back to the default
// tenant for unknown names (a connection that never said hello, or said
// hello for a tenant unregistered since).
func (m *Manager) lookup(tenant string) *state {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.tenants[tenant]; ok {
		return st
	}
	return m.tenants[DefaultTenant]
}

// Overloaded reports the gate's current shed-instead-of-queue state.
func (m *Manager) Overloaded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overloaded
}

// clampRetry bounds a retry-after hint to (0, MaxRetryAfter].
func (m *Manager) clampRetry(d time.Duration) time.Duration {
	if d <= 0 {
		d = time.Millisecond
	}
	if d > m.cfg.MaxRetryAfter {
		d = m.cfg.MaxRetryAfter
	}
	return d
}

// Admit implements core.TenantGate: it charges one request against the
// tenant's arbiter-granted rate. In normal operation it blocks until the
// budget admits the read (throttling); under overload it refuses to queue
// and sheds over-budget tenants with a typed OverloadError instead. The
// shed happens before the read executes, so retrying it is always safe.
func (m *Manager) Admit(tenant string) error {
	st := m.lookup(tenant)
	m.mu.Lock()
	overloaded := m.overloaded
	m.mu.Unlock()
	if overloaded {
		if st.bytes != nil && st.bytes.InDebt() {
			st.shed.Inc()
			return &OverloadError{Tenant: st.name, RetryAfter: m.clampRetry(st.bytes.DebtWait())}
		}
		ok, wait := st.bucket.TryAcquire(1)
		if !ok {
			st.shed.Inc()
			return &OverloadError{Tenant: st.name, RetryAfter: m.clampRetry(wait)}
		}
	} else {
		st.bucket.Acquire(1)
		if st.bytes != nil {
			st.bytes.AwaitNonNegative()
		}
	}
	st.admitted.Inc()
	return nil
}

// TryAdmit implements core.TenantGate's non-blocking admission, for reads
// the server does ahead of a request (socket read-ahead): it charges one
// request against the tenant's granted rate only if that takes no waiting —
// tokens on hand, no byte debt, manager not overloaded — and otherwise
// refuses without counting a shed: nothing was asked for, so nothing was
// rejected, and the sample stays where it is for the read that will ask.
func (m *Manager) TryAdmit(tenant string) bool {
	st := m.lookup(tenant)
	if m.Overloaded() || (st.bytes != nil && st.bytes.InDebt()) {
		return false
	}
	if ok, _ := st.bucket.TryAcquire(1); !ok {
		return false
	}
	st.admitted.Inc()
	return true
}

// ObserveLatency implements core.TenantGate: every tenant read's
// end-to-end latency (including admission waits) lands in the tenant's
// histogram and, when the tenant has a latency objective, in the
// SLO burn-rate tracker. Shed reads count against the shed budget instead
// of the latency threshold.
func (m *Manager) ObserveLatency(tenant string, latency time.Duration, shed bool) {
	st := m.lookup(tenant)
	if !shed {
		st.latency.Observe(latency)
	}
	m.slo.Observe(st.name, latency, shed)
}

// SLO exposes the burn-rate tracker (for bundles and metrics surfaces).
func (m *Manager) SLO() *obs.SLOTracker { return m.slo }

// ObserveRead implements core.TenantGate: byte budgets are charged after
// the read, when the payload size is known; the debt throttles (or, under
// overload, sheds) subsequent reads from the same tenant.
func (m *Manager) ObserveRead(tenant string, bytes int64, err error) {
	st := m.lookup(tenant)
	if err != nil {
		st.errors.Inc()
		return
	}
	if bytes > 0 {
		st.bytesRead.Add(bytes)
		if st.bytes != nil {
			st.bytes.Charge(float64(bytes))
		}
	}
}

// tick evaluates saturation and re-arbitrates grants.
func (m *Manager) tick(interval time.Duration) {
	var load Load
	if m.cfg.Load != nil {
		load = m.cfg.Load()
	}
	over := m.cfg.MaxQueueDepth > 0 && load.QueueDepth >= m.cfg.MaxQueueDepth
	m.mu.Lock()
	m.overloaded = over
	m.mu.Unlock()
	if load.Degraded {
		m.arb.SetCapacity(m.cfg.Capacity * m.cfg.DegradedFactor)
	} else {
		m.arb.SetCapacity(m.cfg.Capacity)
	}
	m.arb.Tick(interval)
	var acts []SLOAction
	m.sloMu.Lock()
	for _, tr := range m.slo.Evaluate() {
		if act, ok := m.applySLOTransition(tr); ok {
			acts = append(acts, act)
		}
	}
	m.sloMu.Unlock()
	if m.cfg.OnSLOAction != nil {
		for _, act := range acts {
			m.cfg.OnSLOAction(act)
		}
	}
}

// applySLOTransition turns one SLO state change into a gate action: a
// tenant entering BREACH gets its arbitration weight boosted by
// SLOBoostFactor (the noisy neighbor is squeezed by max-min in its favor);
// recovering to OK restores the base weight; WARN is observed without
// actuation. The action is returned for audit through OnSLOAction; ok is
// false for a tenant no longer registered.
func (m *Manager) applySLOTransition(tr obs.SLOTransition) (act SLOAction, ok bool) {
	m.mu.Lock()
	st, ok := m.tenants[tr.Tenant]
	if !ok {
		m.mu.Unlock()
		return SLOAction{}, false
	}
	act = SLOAction{Tenant: tr.Tenant, From: tr.From, To: tr.To, Status: tr.Status}
	base := st.weight
	act.WeightBefore = base
	if st.boosted {
		act.WeightBefore = base * m.cfg.SLOBoostFactor
	}
	act.WeightAfter = act.WeightBefore
	switch tr.To {
	case obs.SLOBreach:
		act.Rule = "slo-breach"
		if !st.boosted {
			st.boosted = true
			act.WeightAfter = base * m.cfg.SLOBoostFactor
		}
	case obs.SLOOK:
		act.Rule = "slo-recovered"
		if st.boosted {
			st.boosted = false
			act.WeightAfter = base
		}
	default:
		act.Rule = "slo-warn"
	}
	m.mu.Unlock()
	if act.WeightAfter != act.WeightBefore {
		m.arb.SetWeight(tr.Tenant, act.WeightAfter)
	}
	return act, true
}

// Tick runs one arbitration/overload evaluation round (tests drive this
// directly; production uses Start).
func (m *Manager) Tick(interval time.Duration) { m.tick(interval) }

// Start runs the evaluation loop every TickInterval until Stop.
func (m *Manager) Start() {
	m.loop.Start(m.env, "tenancy-manager", m.cfg.TickInterval, func() { m.tick(m.cfg.TickInterval) })
}

// Stop terminates the loop after its current sleep.
func (m *Manager) Stop() { m.loop.Stop() }

// TenantStats is one tenant's monitoring snapshot (rendered by /tenants,
// prisma-ctl tenants, and the prisma_tenant_* Prometheus metrics).
type TenantStats struct {
	Name         string  `json:"name"`
	Weight       float64 `json:"weight"`
	GrantedRate  float64 `json:"granted_rate"`  // reads/s from the arbiter
	MeasuredRate float64 `json:"measured_rate"` // demand estimate, last tick
	Admitted     int64   `json:"admitted"`
	Shed         int64   `json:"shed"`
	BytesRead    int64   `json:"bytes_read"`
	Errors       int64   `json:"errors"`
	ByteBudget   float64 `json:"byte_budget,omitempty"` // bytes/s, 0 = unmetered
	InDebt       bool    `json:"in_debt"`
	// SLOBoosted marks an active breach boost (Weight is the base weight;
	// the arbiter currently runs Weight x SLOBoostFactor).
	SLOBoosted bool `json:"slo_boosted,omitempty"`
	// Latency is the tenant's end-to-end read latency histogram.
	Latency metrics.HistogramSnapshot `json:"latency"`
	// SLO is the tenant's objective evaluation, nil without an objective.
	SLO *obs.SLOStatus `json:"slo,omitempty"`
}

// Snapshot is the full control-plane view.
type Snapshot struct {
	Overloaded bool          `json:"overloaded"`
	Capacity   float64       `json:"capacity"`
	Tenants    []TenantStats `json:"tenants"`
}

// Stats snapshots every tenant, sorted by name for stable rendering.
func (m *Manager) Stats() Snapshot {
	m.sloMu.Lock()
	defer m.sloMu.Unlock()
	grants := m.arb.Grants()
	byID := make(map[string]fairness.Grant, len(grants))
	for _, g := range grants {
		byID[g.ID] = g
	}
	m.mu.Lock()
	states := make([]*state, 0, len(m.tenants))
	boosted := make(map[string]bool, len(m.tenants))
	for _, st := range m.tenants {
		states = append(states, st)
		boosted[st.name] = st.boosted
	}
	overloaded := m.overloaded
	m.mu.Unlock()
	snap := Snapshot{Overloaded: overloaded, Capacity: m.arb.Capacity()}
	for _, st := range states {
		g := byID[st.name]
		ts := TenantStats{
			Name:         st.name,
			Weight:       st.weight,
			GrantedRate:  g.Granted,
			MeasuredRate: g.Measured,
			Admitted:     st.admitted.Value(),
			Shed:         st.shed.Value(),
			BytesRead:    st.bytesRead.Value(),
			Errors:       st.errors.Value(),
			ByteBudget:   st.bytesPerSec,
			SLOBoosted:   boosted[st.name],
			Latency:      st.latency.Snapshot(),
		}
		if st.bytes != nil {
			ts.InDebt = st.bytes.InDebt()
		}
		if slo, ok := m.slo.Status(st.name); ok {
			ts.SLO = &slo
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })
	return snap
}
