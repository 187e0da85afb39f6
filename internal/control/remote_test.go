package control

import (
	"errors"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/core"
)

// fakeRemoteStage scripts a remote node's control connection: it serves a
// canned snapshot until failAfter calls, then returns transport errors.
type fakeRemoteStage struct {
	stats     core.StageStats
	statCalls int
	failAfter int

	producers int
	buffer    int
	setCalls  int
	failSets  bool
}

var errTransport = errors.New("connection reset by peer")

func (f *fakeRemoteStage) Stats() (core.StageStats, error) {
	f.statCalls++
	if f.failAfter > 0 && f.statCalls > f.failAfter {
		return core.StageStats{}, errTransport
	}
	return f.stats, nil
}

// Control applies the settings through a control table over the fake's
// knobs, as a server would.
func (f *fakeRemoteStage) Control(settings ...string) error {
	f.setCalls++
	if f.failSets {
		return errTransport
	}
	return (&Table{Stage: (*fakeKnobs)(f)}).Apply(settings...)
}

type fakeKnobs fakeRemoteStage

func (k *fakeKnobs) SetProducers(n int)       { k.producers = n }
func (k *fakeKnobs) SetBufferCapacity(n int)  { k.buffer = n }
func (k *fakeKnobs) SetTraceSampling(float64) {}

// A healthy remote passes stats and knob writes straight through.
func TestRemoteAdapterPassthrough(t *testing.T) {
	fake := &fakeRemoteStage{stats: core.StageStats{Reads: 100, Hits: 80, TargetProducers: 4}}
	a := NewRemoteAdapter(fake)
	if got := a.Stats(); got.Reads != 100 || got.Hits != 80 {
		t.Fatalf("stats = %+v, want passthrough", got)
	}
	a.SetProducers(6)
	a.SetBufferCapacity(64)
	if fake.producers != 6 || fake.buffer != 64 {
		t.Fatalf("knobs = (%d, %d), want (6, 64)", fake.producers, fake.buffer)
	}
	if a.Errors() != 0 {
		t.Fatalf("errors = %d, want 0", a.Errors())
	}
}

// On transport failure Stats returns the last good snapshot, so a
// delta-based tuner sees a quiet stage rather than a crash to zero.
func TestRemoteAdapterLastGoodSnapshot(t *testing.T) {
	fake := &fakeRemoteStage{
		stats:     core.StageStats{Reads: 500, Hits: 450, TargetProducers: 8},
		failAfter: 2,
	}
	a := NewRemoteAdapter(fake)
	a.Stats()
	good := a.Stats()
	for i := 0; i < 3; i++ {
		got := a.Stats()
		if got.Reads != good.Reads || got.Hits != good.Hits || got.TargetProducers != good.TargetProducers {
			t.Fatalf("failed call %d returned %+v, want frozen snapshot %+v", i, got, good)
		}
	}
	if a.Errors() != 3 {
		t.Fatalf("errors = %d, want 3", a.Errors())
	}
}

// Before any successful call, a failing remote yields the zero snapshot.
func TestRemoteAdapterZeroBeforeSeed(t *testing.T) {
	a := NewRemoteAdapter(failingRemote{})
	if got := a.Stats(); got.Reads != 0 || got.Hits != 0 || got.TargetProducers != 0 {
		t.Fatalf("unseeded stats = %+v, want zero", got)
	}
	if a.Errors() != 1 {
		t.Fatalf("errors = %d, want 1", a.Errors())
	}
}

type failingRemote struct{}

func (failingRemote) Stats() (core.StageStats, error) { return core.StageStats{}, errTransport }
func (failingRemote) Control(...string) error         { return errTransport }

// Knob writes during an outage are counted and dropped; the node keeps its
// last applied values and the next round re-applies the absolute knob.
func TestRemoteAdapterDropsFailedKnobWrites(t *testing.T) {
	fake := &fakeRemoteStage{failSets: true, producers: 2, buffer: 16}
	a := NewRemoteAdapter(fake)
	a.SetProducers(8)
	a.SetBufferCapacity(128)
	if fake.producers != 2 || fake.buffer != 16 {
		t.Fatalf("knobs changed during outage: (%d, %d)", fake.producers, fake.buffer)
	}
	if a.Errors() != 2 {
		t.Fatalf("errors = %d, want 2", a.Errors())
	}
	// Recovery: writes land again and the error count stops growing.
	fake.failSets = false
	a.SetProducers(8)
	if fake.producers != 8 || a.Errors() != 2 {
		t.Fatalf("post-recovery: producers=%d errors=%d", fake.producers, a.Errors())
	}
}
