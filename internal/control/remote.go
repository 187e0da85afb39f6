package control

import "github.com/dsrhaslab/prisma-go/internal/core"

// RemoteStage is the fallible control interface a remote node exposes: its
// stats and its control table (Table.Apply's key=value settings, as
// OpControl carries them). Declared here as an interface so control stays
// decoupled from the transport package.
type RemoteStage interface {
	Stats() (core.StageStats, error)
	Control(settings ...string) error
}

// RemoteAdapter adapts a RemoteStage to the infallible DataPlane interface
// controllers and coordinators drive: transport errors are counted and
// absorbed — Stats returns the last good snapshot (so a tuner's deltas
// freeze rather than wildly swing during a node blackout) and knob writes
// are dropped (the next round re-applies them; knobs are absolute values).
// This is what lets the centralized and replicated cluster control planes
// run unchanged over real prisma-server nodes.
type RemoteAdapter struct {
	rs RemoteStage

	// Snapshot state is only touched from control-plane ticks, which are
	// serialized per controller, but Attach-time reads can race a started
	// loop, so guard anyway via a plain mutex-free design: ticks own it.
	last   core.StageStats
	seeded bool
	errs   int64
}

// NewRemoteAdapter wraps a remote node's control connection.
func NewRemoteAdapter(rs RemoteStage) *RemoteAdapter {
	return &RemoteAdapter{rs: rs}
}

// Stats implements DataPlane. On a transport failure it returns the last
// successful snapshot (the zero snapshot before any success), so delta-
// based tuners see a quiet stage rather than garbage.
func (a *RemoteAdapter) Stats() core.StageStats {
	s, err := a.rs.Stats()
	if err != nil {
		a.errs++
		return a.last
	}
	a.last = s
	a.seeded = true
	return s
}

// SetProducers implements DataPlane; a transport failure is counted and
// dropped (the knob is absolute — the next round re-applies it).
func (a *RemoteAdapter) SetProducers(n int) {
	if err := a.rs.Control(Setting("producers", n)); err != nil {
		a.errs++
	}
}

// SetBufferCapacity implements DataPlane; failures are counted and
// dropped like SetProducers.
func (a *RemoteAdapter) SetBufferCapacity(n int) {
	if err := a.rs.Control(Setting("buffer", n)); err != nil {
		a.errs++
	}
}

// Errors reports how many remote control calls failed and were absorbed.
func (a *RemoteAdapter) Errors() int64 { return a.errs }

// compile-time check: the adapter satisfies the control interface.
var _ DataPlane = (*RemoteAdapter)(nil)
