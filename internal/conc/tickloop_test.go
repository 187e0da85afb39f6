package conc

import (
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/sim"
)

// TestTickLoop: the loop ticks once per interval, a Stop lands after the
// current sleep (the sim ends with no thread left), and a second Start
// panics.
func TestTickLoop(t *testing.T) {
	s := sim.New()
	env := NewSimEnv(s)
	var ticks []time.Duration
	var secondStart any
	s.Spawn("driver", func(*sim.Process) {
		var idle TickLoop
		idle.Stop() // never started: harmless
		var l TickLoop
		l.Start(env, "ticker", time.Second, func() { ticks = append(ticks, env.Now()) })
		func() {
			defer func() { secondStart = recover() }()
			l.Start(env, "ticker", time.Second, func() {})
		}()
		env.Sleep(2500 * time.Millisecond)
		l.Stop()
		l.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 || ticks[0] != time.Second || ticks[1] != 2*time.Second {
		t.Fatalf("ticks at %v, want 1s and 2s", ticks)
	}
	if end := s.Now(); end != 3*time.Second {
		t.Fatalf("sim ended at %v, want 3s: the loop exits after the sleep Stop landed in", end)
	}
	if secondStart == nil {
		t.Fatal("a second Start did not panic")
	}
}
