package prisma

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// knobState is every value the control table sets, as the instance
// reports it.
type knobState struct {
	producers, buffer int
	sampling          float64
	weight, bytes     float64 // tenant a's
}

func readKnobs(t *testing.T, p *Prisma) knobState {
	t.Helper()
	s := p.Stats()
	k := knobState{producers: s.Producers, buffer: s.BufferCapacity, sampling: s.TraceSampling}
	snap, err := p.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Tenants {
		if ts.Name == "a" {
			k.weight, k.bytes = ts.Weight, ts.ByteBudget
		}
	}
	return k
}

// controlTransports serves p over a socket and HTTP and returns every way
// of reaching its control table, each answering a refusal as an error that
// carries the table's message. Without -short the list includes the shipped
// prisma-ctl binary.
func controlTransports(t *testing.T, p *Prisma) map[string]func(settings ...string) error {
	t.Helper()
	sock := filepath.Join(shortTempDir(t), "control.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(p.AdminHandler())
	t.Cleanup(srv.Close)
	transports := map[string]func(settings ...string) error{
		"Prisma.Control": p.Control,
		"Client.Control": c.Control,
		"POST /tuning": func(settings ...string) error {
			q := url.Values{}
			for _, s := range settings {
				key, value, _ := strings.Cut(s, "=")
				q.Add(key, value)
			}
			resp, err := http.Post(srv.URL+"/tuning?"+q.Encode(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%d: %s", resp.StatusCode, body)
			}
			return nil
		},
	}
	if testing.Short() {
		return transports
	}
	ctl := filepath.Join(t.TempDir(), "prisma-ctl")
	if out, err := exec.Command("go", "build", "-o", ctl, "./cmd/prisma-ctl").CombinedOutput(); err != nil {
		t.Fatalf("building prisma-ctl: %v\n%s", err, out)
	}
	transports["prisma-ctl set"] = func(settings ...string) error {
		out, err := exec.Command(ctl, append([]string{"-socket", sock, "set"}, settings...)...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("%v: %s", err, out)
		}
		return nil
	}
	return transports
}

// TestControlTransportsAgree sends every key of the control table with a
// valid value, 0, a negative, NaN, +Inf and garbage — and a key for an
// unregistered tenant, an unknown key, and requests mixing a valid pair
// with an invalid one — through every transport. Each transport gives the
// same answer; a refusal names the offending key and changes no knob, and
// an acceptance sets exactly what it asked for.
func TestControlTransportsAgree(t *testing.T) {
	p := open(t, makeDataset(t, 8), func(o *Options) {
		o.DisableAutoTune = true
		o.Tenancy = TenancyOptions{Enable: true, Tenants: []TenantSpec{{Name: "a", BytesPerSecond: 1000}}}
	})
	transports := controlTransports(t, p)
	baseline := []string{"producers=2", "buffer=16", "sampling=0.25", "tenant.a.weight=1", "tenant.a.bytes=1000"}
	base := knobState{producers: 2, buffer: 16, sampling: 0.25, weight: 1, bytes: 1000}

	type tc struct {
		settings []string
		bad      string    // the key a refusal must name; "" = accepted
		want     knobState // after an accepted request
	}
	cases := []tc{
		{[]string{"producers=3"}, "", knobState{3, 16, 0.25, 1, 1000}},
		{[]string{"buffer=48"}, "", knobState{2, 48, 0.25, 1, 1000}},
		{[]string{"sampling=0.5"}, "", knobState{2, 16, 0.5, 1, 1000}},
		{[]string{"sampling=0"}, "", knobState{2, 16, 0, 1, 1000}},
		{[]string{"tenant.a.weight=3"}, "", knobState{2, 16, 0.25, 3, 1000}},
		{[]string{"tenant.a.bytes=4096"}, "", knobState{2, 16, 0.25, 1, 4096}},
		{[]string{"producers=4", "buffer=32", "sampling=1", "tenant.a.weight=2.5", "tenant.a.bytes=1e6"}, "", knobState{4, 32, 1, 2.5, 1e6}},
		{[]string{"tenant.ghost.weight=2"}, "tenant.ghost.weight", base},
		{[]string{"tenant.ghost.bytes=2"}, "tenant.ghost.bytes", base},
		{[]string{"nosuch=1"}, "nosuch", base},
		{[]string{"producers=5", "buffer=0"}, "buffer", base},
		{[]string{"tenant.a.weight=3", "sampling=NaN"}, "sampling", base},
		{[]string{"sampling=0.5", "bogus=1"}, "bogus", base},
	}
	for _, key := range []string{"producers", "buffer", "sampling", "tenant.a.weight", "tenant.a.bytes"} {
		for _, v := range []string{"0", "-1", "NaN", "+Inf", "abc"} {
			if key == "sampling" && v == "0" {
				continue // a probability of 0 is in range: tracing off
			}
			cases = append(cases, tc{[]string{key + "=" + v}, key, base})
		}
	}
	for name, apply := range transports {
		for _, c := range cases {
			if err := p.Control(baseline...); err != nil {
				t.Fatal(err)
			}
			err := apply(c.settings...)
			got := readKnobs(t, p)
			switch {
			case c.bad == "" && err != nil:
				t.Errorf("%s %v refused: %v", name, c.settings, err)
			case c.bad != "" && err == nil:
				t.Errorf("%s %v accepted, want refused", name, c.settings)
			case c.bad != "" && !strings.Contains(err.Error(), c.bad):
				t.Errorf("%s %v: refusal %q does not name %s", name, c.settings, err, c.bad)
			case got != c.want:
				t.Errorf("%s %v: knobs %+v, want %+v", name, c.settings, got, c.want)
			}
		}
	}
}

// TestControlSetters: each knob set alone, one Control call per key, is
// refused with an error instead of clamped when out of range, and so is a
// call that sets nothing; a tenant knob set alone leaves the other as it
// was.
func TestControlSetters(t *testing.T) {
	p := open(t, makeDataset(t, 4), func(o *Options) {
		o.DisableAutoTune = true
		o.Tenancy = TenancyOptions{Enable: true, Tenants: []TenantSpec{{Name: "a", BytesPerSecond: 1000}}}
	})
	for _, err := range []error{p.Control("producers=0"), p.Control("buffer=-1"), p.Control("sampling=1.5"), p.Control("tenant.a.weight=-1"), p.Control()} {
		if err == nil {
			t.Error("Control accepted a value the table refuses")
		}
	}
	if err := errors.Join(p.Control("producers=3"), p.Control("buffer=24"), p.Control("sampling=0.75"), p.Control("tenant.a.bytes=2048")); err != nil {
		t.Fatal(err)
	}
	if got, want := readKnobs(t, p), (knobState{3, 24, 0.75, 1, 2048}); got != want {
		t.Fatalf("knobs %+v, want %+v", got, want)
	}
}
