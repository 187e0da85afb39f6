package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// outsideOptions names the flags that act outside prisma.Options: where
// the server listens, and how often it logs.
var outsideOptions = map[string]bool{"socket": true, "http": true, "stats": true}

// parse runs parseFlags over args on a fresh FlagSet.
func parse(t *testing.T, args []string) server {
	t.Helper()
	fs := flag.NewFlagSet("prisma-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return s
}

// setTo is an argument that sets f to a value other than its default, one
// its parser accepts.
func setTo(f *flag.Flag) string {
	examples := map[string]string{"peers": "n=/tmp/n.sock", "tenants": "t", "slo": "t:0.99:20ms"}
	var v any
	switch d := f.Value.(flag.Getter).Get().(type) {
	case bool:
		v = !d
	case int:
		v = d + 1
	case int64:
		v = d + 1
	case float64:
		v = d + 0.5
	case time.Duration:
		v = d + time.Second
	case string:
		v = d + "x"
		if ex, ok := examples[f.Name]; ok {
			v = ex
		}
	}
	return fmt.Sprintf("-%s=%v", f.Name, v)
}

// TestEveryFlagReachesOptions: each prisma-server flag but the three that
// act outside Options, set to a value other than its default, changes the
// Options the server opens with. The flag that turns its layer on (and,
// for -slo, the tenant it names) is set on both sides, so the difference
// is the flag's own. A flag that reaches nothing fails here.
func TestEveryFlagReachesOptions(t *testing.T) {
	requires := map[string]string{}
	for _, r := range subFlags {
		requires[r.flag] = r.requires
	}
	fs := flag.NewFlagSet("prisma-server", flag.ContinueOnError)
	_, _ = parseFlags(fs, nil) // declares every flag; without -dir it stops there
	for name := range outsideOptions {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s is listed as acting outside Options but is not a flag", name)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if outsideOptions[f.Name] {
			return
		}
		t.Run(f.Name, func(t *testing.T) {
			base := []string{"-dir=/data"}
			if req := requires[f.Name]; req != "" {
				base = append(base, setTo(fs.Lookup(req)))
			}
			if f.Name == "slo" {
				base = append(base, setTo(fs.Lookup("tenants")))
			}
			arg := setTo(f)
			before, after := parse(t, base), parse(t, append(base, arg))
			if reflect.DeepEqual(before.opts, after.opts) {
				t.Fatalf("%s leaves Options as %v set them", arg, base)
			}
		})
	})
}
