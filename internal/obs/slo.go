package obs

import (
	"sort"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// SLO states. The tracker follows the SRE multi-window burn-rate pattern:
// a tenant is BREACHING only while both the short and long windows burn
// error budget too fast (fast detection without flapping on noise), WARN
// when the short window alone burns hot, OK otherwise.
const (
	SLOOK     = "ok"
	SLOWarn   = "warn"
	SLOBreach = "breach"
)

// SLOConfig is one tenant's latency objective: "Quantile of reads complete
// within Threshold, and at most ShedBudget of requests may be shed". A read
// is "bad" when it was shed or its latency exceeded Threshold; the error
// budget is the fraction of reads allowed to be bad,
// (1 - Quantile) + ShedBudget.
type SLOConfig struct {
	// Quantile is the target latency quantile in (0, 1), e.g. 0.99.
	Quantile float64 `json:"quantile"`
	// Threshold is the latency bound the quantile must meet.
	Threshold time.Duration `json:"threshold"`
	// ShedBudget is the extra fraction of requests allowed to be shed
	// (load-shedding is budgeted separately from slowness so an overloaded
	// but honest gate doesn't instantly breach). Default 0.
	ShedBudget float64 `json:"shed_budget,omitempty"`
	// Window is the long evaluation window (default 60s of env-clock time).
	Window time.Duration `json:"window,omitempty"`
	// ShortWindow is the fast-detection window (default Window/12). It is
	// also the tracker's bucket width, so Window is rounded up to a whole
	// number of short windows.
	ShortWindow time.Duration `json:"short_window,omitempty"`
}

// The burn-rate thresholds of the state machine. A burn rate of 1 consumes
// exactly the whole error budget over the window; a breach burns the long
// window's budget in a quarter of it.
const (
	warnBurn   = 1
	breachBurn = 4 * warnBurn
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.99
	}
	if c.ShedBudget < 0 {
		c.ShedBudget = 0
	}
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
	if c.ShortWindow <= 0 || c.ShortWindow > c.Window {
		c.ShortWindow = c.Window / 12
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = c.Window
	}
	return c
}

// budgetFraction is the fraction of reads allowed to be bad.
func (c SLOConfig) budgetFraction() float64 {
	return (1 - c.Quantile) + c.ShedBudget
}

// SLOStatus is one tenant's current objective evaluation, JSON-shaped for
// /tenants, /debug/bundle, and prisma-ctl.
type SLOStatus struct {
	Tenant      string        `json:"tenant"`
	State       string        `json:"state"`
	Quantile    float64       `json:"quantile"`
	Threshold   time.Duration `json:"threshold"`
	ShedBudget  float64       `json:"shed_budget,omitempty"`
	Window      time.Duration `json:"window"`
	ShortWindow time.Duration `json:"short_window"`
	// BurnShort and BurnLong are the error-budget burn rates over the
	// short and long windows (1 = burning exactly the budget).
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// BudgetRemaining is the long window's unburned budget fraction,
	// clamped to [0, 1].
	BudgetRemaining float64 `json:"budget_remaining"`
	// Good/Bad/Shed count the long window's reads (Bad includes Shed).
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	Shed int64 `json:"shed"`
}

// SLOTransition is one state change surfaced by Evaluate, the hook the
// tenancy gate and autotuner act on (and audit).
type SLOTransition struct {
	Tenant string    `json:"tenant"`
	From   string    `json:"from"`
	To     string    `json:"to"`
	Status SLOStatus `json:"status"`
}

// sloBucket is one ShortWindow-wide tally of read outcomes.
type sloBucket struct {
	good int64
	bad  int64 // includes shed
	shed int64
}

// sloTenant is one tenant's sliding window: a ring of ShortWindow-wide
// buckets covering the long window, rotated off the env clock.
type sloTenant struct {
	cfg     SLOConfig
	buckets []sloBucket
	// epoch is the env-clock bucket index (now / ShortWindow) the current
	// ring head corresponds to; buckets[epoch % len(buckets)] is "now".
	epoch int64
	state string
}

// rotate advances the ring to the bucket containing now, zeroing any
// skipped buckets so idle time decays the windows toward empty (and the
// state toward OK).
func (t *sloTenant) rotate(now time.Duration) {
	idx := int64(now / t.cfg.ShortWindow)
	if idx <= t.epoch {
		return
	}
	steps := idx - t.epoch
	if steps > int64(len(t.buckets)) {
		steps = int64(len(t.buckets))
	}
	for i := int64(1); i <= steps; i++ {
		t.buckets[(t.epoch+i)%int64(len(t.buckets))] = sloBucket{}
	}
	t.epoch = idx
}

// burn computes the error-budget burn rate over the most recent n buckets.
// An empty window burns nothing.
func (t *sloTenant) burn(n int) (rate float64, good, bad, shed int64) {
	if n > len(t.buckets) {
		n = len(t.buckets)
	}
	for i := 0; i < n; i++ {
		b := t.buckets[((t.epoch-int64(i))%int64(len(t.buckets))+int64(len(t.buckets)))%int64(len(t.buckets))]
		good += b.good
		bad += b.bad
		shed += b.shed
	}
	total := good + bad
	if total == 0 {
		return 0, good, bad, shed
	}
	budget := t.cfg.budgetFraction()
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget, good, bad, shed
}

// status evaluates the tenant's windows at the current ring position. The
// short window spans the current and previous bucket (so a just-rotated,
// nearly empty head bucket doesn't blind fast detection).
func (t *sloTenant) status(name string) SLOStatus {
	burnShort, _, _, _ := t.burn(2)
	burnLong, good, bad, shed := t.burn(len(t.buckets))
	state := SLOOK
	switch {
	case burnShort >= breachBurn && burnLong >= warnBurn:
		state = SLOBreach
	case burnShort >= warnBurn:
		state = SLOWarn
	}
	remaining := 1 - burnLong
	if remaining < 0 {
		remaining = 0
	}
	return SLOStatus{
		Tenant:          name,
		State:           state,
		Quantile:        t.cfg.Quantile,
		Threshold:       t.cfg.Threshold,
		ShedBudget:      t.cfg.ShedBudget,
		Window:          t.cfg.ShortWindow * time.Duration(len(t.buckets)),
		ShortWindow:     t.cfg.ShortWindow,
		BurnShort:       burnShort,
		BurnLong:        burnLong,
		BudgetRemaining: remaining,
		Good:            good,
		Bad:             bad,
		Shed:            shed,
	}
}

// SLOTracker evaluates per-tenant latency objectives over env-clock sliding
// windows. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops), so the observation hot path needs no nil checks. Under
// the simulated clock the whole state machine is deterministic.
type SLOTracker struct {
	env conc.Env

	mu      conc.Mutex
	tenants map[string]*sloTenant
}

// NewSLOTracker builds a tracker on env's clock.
func NewSLOTracker(env conc.Env) *SLOTracker {
	return &SLOTracker{
		env:     env,
		mu:      env.NewMutex(),
		tenants: make(map[string]*sloTenant),
	}
}

// Set installs (or replaces) a tenant's objective. Replacing resets the
// tenant's windows and state.
func (s *SLOTracker) Set(tenant string, cfg SLOConfig) {
	if s == nil {
		return
	}
	cfg = cfg.withDefaults()
	n := int((cfg.Window + cfg.ShortWindow - 1) / cfg.ShortWindow)
	if n < 1 {
		n = 1
	}
	t := &sloTenant{
		cfg:     cfg,
		buckets: make([]sloBucket, n),
		epoch:   int64(s.env.Now() / cfg.ShortWindow),
		state:   SLOOK,
	}
	s.mu.Lock()
	s.tenants[tenant] = t
	s.mu.Unlock()
}

// Remove drops a tenant's objective.
func (s *SLOTracker) Remove(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.tenants, tenant)
	s.mu.Unlock()
}

// Config reports a tenant's installed objective (with defaults applied).
func (s *SLOTracker) Config(tenant string) (SLOConfig, bool) {
	if s == nil {
		return SLOConfig{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenant]
	if !ok {
		return SLOConfig{}, false
	}
	return t.cfg, true
}

// Observe records one read outcome for tenant: bad when shed, or when the
// latency exceeded the objective's threshold. Tenants without an objective
// are ignored, so the hot path can call unconditionally.
func (s *SLOTracker) Observe(tenant string, latency time.Duration, shed bool) {
	if s == nil {
		return
	}
	now := s.env.Now()
	s.mu.Lock()
	t, ok := s.tenants[tenant]
	if !ok {
		s.mu.Unlock()
		return
	}
	t.rotate(now)
	b := &t.buckets[t.epoch%int64(len(t.buckets))]
	if shed {
		b.bad++
		b.shed++
	} else if latency > t.cfg.Threshold {
		b.bad++
	} else {
		b.good++
	}
	s.mu.Unlock()
}

// Evaluate advances every tenant's windows to now, recomputes states, and
// returns the transitions (sorted by tenant for determinism). The caller —
// the tenancy tick loop — turns transitions into gate/autotuner actions.
func (s *SLOTracker) Evaluate() []SLOTransition {
	if s == nil {
		return nil
	}
	now := s.env.Now()
	s.mu.Lock()
	var out []SLOTransition
	for name, t := range s.tenants {
		t.rotate(now)
		st := t.status(name)
		if st.State != t.state {
			out = append(out, SLOTransition{Tenant: name, From: t.state, To: st.State, Status: st})
			t.state = st.State
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Status reports one tenant's current evaluation (false if no objective).
// Read-only: the reported state is the last Evaluate-committed one.
func (s *SLOTracker) Status(tenant string) (SLOStatus, bool) {
	if s == nil {
		return SLOStatus{}, false
	}
	now := s.env.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenant]
	if !ok {
		return SLOStatus{}, false
	}
	t.rotate(now)
	st := t.status(tenant)
	st.State = t.state
	return st, true
}

// Snapshot reports every tracked tenant's status, sorted by tenant name.
// Like Status, states are the last Evaluate-committed ones.
func (s *SLOTracker) Snapshot() []SLOStatus {
	if s == nil {
		return nil
	}
	now := s.env.Now()
	s.mu.Lock()
	out := make([]SLOStatus, 0, len(s.tenants))
	for name, t := range s.tenants {
		t.rotate(now)
		st := t.status(name)
		st.State = t.state
		out = append(out, st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
