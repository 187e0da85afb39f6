package control

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Knobs are the stage knobs the control table sets (core.Stage has them).
type Knobs interface {
	SetProducers(n int)
	SetBufferCapacity(n int)
	SetTraceSampling(p float64)
}

// Table is a stage's one control interface (paper §III): every runtime
// knob, with how a value for it is parsed, range-checked and applied. Every
// transport — Prisma.Control, OpControl, POST /tuning, prisma-ctl set —
// hands it the same key=value strings, so a value gets the same answer
// whichever way it came.
type Table struct {
	Stage   Knobs
	Tenants *tenancy.Manager // nil: the tenant rows refuse every key
}

// row is one knob. A tenant row's key is tenant.<name>.<key>.
type row struct {
	key    string
	tenant bool
	parse  func(string) (float64, error)
	apply  func(t *Table, tenant string, v float64) error
}

var rows = []row{
	{"producers", false, parseCount, func(t *Table, _ string, v float64) error { t.Stage.SetProducers(int(v)); return nil }},
	{"buffer", false, parseCount, func(t *Table, _ string, v float64) error { t.Stage.SetBufferCapacity(int(v)); return nil }},
	{"sampling", false, parseProbability, func(t *Table, _ string, v float64) error { t.Stage.SetTraceSampling(v); return nil }},
	{"weight", true, parsePositive, func(t *Table, name string, v float64) error { return t.Tenants.SetTenant(name, v, 0) }},
	{"bytes", true, parsePositive, func(t *Table, name string, v float64) error { return t.Tenants.SetTenant(name, 0, v) }},
}

// parseCount takes an integer in [1, MaxInt32]: far above any producer
// count or buffer capacity, and an int everywhere.
func parseCount(s string) (float64, error) {
	if n, err := strconv.Atoi(s); err == nil && n >= 1 && n <= math.MaxInt32 {
		return float64(n), nil
	}
	return 0, fmt.Errorf("want an integer in [1, %d]", math.MaxInt32)
}

func parseProbability(s string) (float64, error) {
	if p, err := strconv.ParseFloat(s, 64); err == nil && p >= 0 && p <= 1 {
		return p, nil
	}
	return 0, errors.New("want a probability in [0, 1]")
}

func parsePositive(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && !math.IsInf(v, 1) {
		return v, nil
	}
	return 0, errors.New("want a finite number > 0")
}

// Apply checks every key=value setting, then applies all of them or none.
// It refuses an empty request, unknown or repeated keys, unregistered
// tenants, non-finite numbers and values out of range, naming the
// offending key.
func (t *Table) Apply(settings ...string) error {
	if len(settings) == 0 {
		return errors.New("control: nothing to apply (keys: producers, buffer, sampling, tenant.NAME.weight, tenant.NAME.bytes)")
	}
	type change struct {
		row    *row
		tenant string
		v      float64
	}
	changes := make([]change, len(settings))
	seen := make(map[string]bool, len(settings))
	for i, s := range settings {
		key, value, _ := strings.Cut(s, "=")
		if seen[key] {
			return fmt.Errorf("control: %s given twice", key)
		}
		seen[key] = true
		r, tenant, err := t.lookup(key)
		if err != nil {
			return err
		}
		v, err := r.parse(value)
		if err != nil {
			return fmt.Errorf("control: bad %s value %q: %v", key, value, err)
		}
		changes[i] = change{r, tenant, v}
	}
	for _, c := range changes {
		// Only a tenant unregistered since lookup fails here.
		if err := c.row.apply(t, c.tenant, c.v); err != nil {
			return err
		}
	}
	return nil
}

// lookup finds key's row and, for a tenant row, checks the tenant.
func (t *Table) lookup(key string) (*row, string, error) {
	knob, tenant := key, ""
	if rest, ok := strings.CutPrefix(key, "tenant."); ok {
		if i := strings.LastIndexByte(rest, '.'); i > 0 {
			tenant, knob = rest[:i], rest[i+1:]
		}
	}
	for i := range rows {
		if r := &rows[i]; r.key == knob && r.tenant == (tenant != "") {
			if r.tenant && (t.Tenants == nil || !t.Tenants.Registered(tenant)) {
				return nil, "", fmt.Errorf("control: %s: no tenant %q registered", key, tenant)
			}
			return r, tenant, nil
		}
	}
	return nil, "", fmt.Errorf("control: unknown key %q", key)
}
