package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
)

// Plan-lifecycle errors (DESIGN.md §12).
var (
	// ErrEpochCancelled is delivered to consumers blocked on a sample whose
	// plan epoch was cancelled, and to producers parking such a sample.
	ErrEpochCancelled = errors.New("core: plan epoch cancelled")
	// ErrTakeDeadline is returned when a consumer's buffer wait exceeds the
	// configured take deadline; the plan entry is returned to the epoch, so
	// a later read of the same name can still claim it.
	ErrTakeDeadline = errors.New("core: consumer take deadline exceeded")
	// ErrUnknownEpoch is returned by CancelEpoch for an epoch id that was
	// never issued (or whose record already aged out of the history).
	ErrUnknownEpoch = errors.New("core: unknown plan epoch")
)

// EpochID identifies one submitted plan epoch. IDs start at 1; zero marks
// "no epoch" (items that did not come through the plan).
type EpochID uint64

// PlanPos locates one plan entry: its epoch and its index in the order that
// epoch was submitted in. The zero value means "no plan entry" (an
// unplanned read). A reader's successive positions are what socket
// read-ahead predicts from (DESIGN.md §19).
type PlanPos struct {
	Epoch EpochID
	Index int
}

// before orders positions by epoch, then index: the FIFO order in which the
// entries of one name are claimed.
func (p PlanPos) before(q PlanPos) bool {
	return p.Epoch < q.Epoch || (p.Epoch == q.Epoch && p.Index < q.Index)
}

// PlanClaim is a consumer's exclusive hold on one plan entry, taken in the
// same critical section that checks the entry exists (claim-or-bypass: no
// Planned→Take window for a second consumer to fall into). A popped entry
// has the same shape.
type PlanClaim struct {
	// Name is the name table's own string for Slot; only popped entries
	// carry it, for the producer's read.
	Name string
	PlanPos
	// Slot is the entry's name slot in the stage's name table.
	Slot int32
}

// PlanResult reports one epoch submission: the issued id and how many
// entries were registered (the plan length on success).
type PlanResult struct {
	Epoch    EpochID
	Enqueued int
}

// Epoch lifecycle states.
const (
	// EpochActive: all entries registered and claimable.
	EpochActive = "active"
	// EpochCancelled: terminal; unclaimed entries dropped, buffered samples
	// released, blocked consumers woken with ErrEpochCancelled.
	EpochCancelled = "cancelled"
	// EpochDone: terminal; every entry was delivered or dropped.
	EpochDone = "done"
)

// EpochStatus is the monitoring view of one epoch.
type EpochStatus struct {
	ID        EpochID       `json:"id"`
	State     string        `json:"state"`
	Submitted time.Duration `json:"submitted"`
	Total     int           `json:"total"`    // plan length
	Enqueued  int           `json:"enqueued"` // entries registered (the plan length)
	Claimed   int64         `json:"claimed"`  // claims taken (cumulative)
	Delivered int64         `json:"delivered"`
	Dropped   int64         `json:"dropped"` // entries dropped by cancellation
}

// PlanStats aggregates plan-manager activity for StageStats.
type PlanStats struct {
	EpochsSubmitted int64 `json:"epochs_submitted"`
	EpochsCancelled int64 `json:"epochs_cancelled"`
	EpochsLive      int   `json:"epochs_live"`     // active
	EntriesPending  int   `json:"entries_pending"` // registered, unclaimed
	ClaimsInFlight  int   `json:"claims_in_flight"`
	Delivered       int64 `json:"delivered"`
	Dropped         int64 `json:"dropped"`
}

// maxEpochHistory bounds how many terminal (done/cancelled) epochs the
// manager retains for status queries; older ones are pruned so a
// long-running training job cannot grow the epoch map without bound.
const maxEpochHistory = 16

// epochState is one epoch's accounting. Guarded by planManager.mu.
type epochState struct {
	id          EpochID
	state       string
	submittedAt time.Duration
	total       int
	claimed     int64 // cumulative claims
	inflight    int   // claims not yet resolved (delivered/unclaimed/dropped)
	delivered   int64
	dropped     int64
	// slots is the submitted plan as name slots, kept while the epoch is
	// active: producers pop it front to back (next is the first unpopped
	// index), and a position resolves to its slot (claimAt). Released once
	// terminal.
	slots []int32
	next  int
}

// planManager owns the plan lifecycle: epochs move registered → claimed →
// delivered (or → cancelled), and every entry is accounted exactly once as
// delivered or dropped. It replaces the prefetcher's ad-hoc
// planned-multiplicity map, whose Planned→Take window and
// no-rollback-on-partial-submit were the hang class this manager exists to
// kill.
//
// It is also the producers' plan store: each epoch's plan is kept once, as
// name slots, and producers pop it in order (pop), so plan order
// within and across epochs is the order of registration. Nothing below the
// stage hashes a name: claims are found by slot, positions by epoch.
//
// Lock order: buffer shard → plan → prefetcher. Buffer shards call into
// the manager (put filter, cancel predicates, positional claims) under
// their own locks; no lock is taken under mu, and no planManager method
// touches the buffer.
type planManager struct {
	env conc.Env

	// cancelledAny is set by the first cancel, before it releases mu. Until
	// then no epoch can be cancelled (nor pruned with items in flight: only
	// a cancel leaves any), so the put filter answers without mu.
	cancelledAny atomic.Bool

	mu     conc.Mutex
	ready  conc.Cond // producers parked in pop, waiting for positions
	parked int       // producers waiting on ready
	closed bool
	nextID EpochID
	names  *dataset.Names // what a popped slot's producer reads
	// epochs holds the retained epochs in issue order — ascending id — for
	// lookup by binary search, listing and pruning.
	epochs []*epochState
	// fifo holds the epochs producers may still pop from, oldest first;
	// terminal and fully popped ones leave it from the front (headLocked).
	fifo []*epochState
	// heads holds each slot's oldest claimable entry (zero: none), dups a
	// repeated name's later ones, FIFO by epoch then index. Nearly every
	// plan names a sample once per epoch, so heads is all a claim touches
	// and dups is consulted only when it is non-empty.
	heads []PlanPos
	dups  map[int32][]PlanPos

	pending  int // total claimable entries across names
	inflight int // claims not yet resolved

	submitted, cancelled int64
	delivered, dropped   int64
}

func newPlanManager(env conc.Env, names *dataset.Names) *planManager {
	pm := &planManager{
		env:   env,
		names: names,
		heads: make([]PlanPos, names.Len()),
		dups:  make(map[int32][]PlanPos),
	}
	pm.mu = env.NewMutex()
	pm.ready = env.NewCond(pm.mu)
	return pm
}

// register issues a new epoch id and makes every entry of a plan, given as
// name slots resolved in the manager's name table, claimable and poppable
// in one critical section — the all-or-nothing commit point of a
// submission: a consumer racing it finds either no entry or the whole plan.
// slots becomes the manager's. An empty plan is done at once. Unless held,
// parked producers are woken one per position, up to as many as are
// parked; a held registration leaves them to the caller's wake.
func (pm *planManager) register(slots []int32, held bool) (EpochID, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.closed {
		return 0, ErrClosed
	}
	pm.nextID++
	ep := &epochState{
		id:          pm.nextID,
		state:       EpochActive,
		submittedAt: pm.env.Now(),
		total:       len(slots),
		slots:       slots,
	}
	pm.epochs = append(pm.epochs, ep)
	pm.fifo = append(pm.fifo, ep)
	pm.submitted++
	for i, s := range slots {
		pm.addLocked(s, PlanPos{Epoch: ep.id, Index: i})
	}
	pm.pending += len(slots)
	for i := 0; i < len(slots) && i < pm.parked && !held; i++ {
		pm.ready.Signal()
	}
	pm.maybeDoneLocked(ep)
	return ep.id, nil
}

// pop hands a producer its next position: the first unpopped one of the
// oldest live epoch, skipping cancelled epochs, as name + slot + position (a
// popped position is not a consumer's claim; it only shares the shape), and
// at is the epoch's submission time. With nothing to pop it parks until a
// registration, wake or close, consulting stop on entry and after every
// wakeup: a true stop abandons the wait (stopped=true). ok is false once
// the manager is closed with nothing left to pop. stop runs under mu; the
// name is looked up after it is released, since it is a load from the name
// table that can miss the cache.
func (pm *planManager) pop(stop func() bool) (e PlanClaim, at time.Duration, ok, stopped bool) {
	e, at, ok, stopped = pm.popLocked(stop)
	if ok {
		e.Name = pm.names.Name(int(e.Slot))
	}
	return e, at, ok, stopped
}

func (pm *planManager) popLocked(stop func() bool) (e PlanClaim, at time.Duration, ok, stopped bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.headLocked()
	for ep == nil {
		if pm.closed {
			return PlanClaim{}, 0, false, false
		}
		if stop() {
			return PlanClaim{}, 0, false, true
		}
		pm.parked++
		pm.ready.Wait()
		pm.parked--
		ep = pm.headLocked()
	}
	e = PlanClaim{PlanPos: PlanPos{Epoch: ep.id, Index: ep.next}, Slot: ep.slots[ep.next]}
	ep.next++
	return e, ep.submittedAt, true, false
}

// headLocked returns the oldest epoch with a position left to pop, first
// dropping terminal and fully popped epochs off the front of fifo. Caller
// holds mu.
func (pm *planManager) headLocked() *epochState {
	for len(pm.fifo) > 0 {
		ep := pm.fifo[0]
		if ep.state == EpochActive && ep.next < len(ep.slots) {
			return ep
		}
		pm.fifo[0] = nil
		pm.fifo = pm.fifo[1:]
	}
	return nil
}

// unpopped counts the positions of live epochs no producer has popped yet.
func (pm *planManager) unpopped() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	n := 0
	for _, ep := range pm.fifo {
		if ep.state == EpochActive {
			n += len(ep.slots) - ep.next
		}
	}
	return n
}

// live returns the distinct name slots the active epochs' plans name, in the
// order they are first planned: every sample the stage's producers may still
// ask the storage chain for.
func (pm *planManager) live() []int32 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	seen := make([]bool, len(pm.heads))
	var out []int32
	for _, ep := range pm.epochs {
		if ep.state != EpochActive {
			continue
		}
		for _, slot := range ep.slots {
			if !seen[slot] {
				seen[slot] = true
				out = append(out, slot)
			}
		}
	}
	return out
}

// wake makes every parked producer re-evaluate its stop predicate and look
// for positions again.
func (pm *planManager) wake() {
	pm.mu.Lock()
	pm.ready.Broadcast()
	pm.mu.Unlock()
}

// close refuses further registrations and wakes every parked producer;
// positions already registered can still be popped.
func (pm *planManager) close() {
	pm.mu.Lock()
	pm.closed = true
	pm.ready.Broadcast()
	pm.mu.Unlock()
}

// cancel moves an epoch to the cancelled state and unregisters its
// unclaimed entries — a sweep of the epoch's own positions — reporting how
// many were removed; its unpopped positions are never popped. Cancelling
// an already-terminal epoch is a no-op (idempotent, so the control path
// can safely retry). The caller is responsible for dropping the epoch's
// buffered items and waking blocked consumers.
func (pm *planManager) cancel(id EpochID) (removed int, err error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochLocked(id)
	if ep == nil {
		return 0, ErrUnknownEpoch
	}
	switch ep.state {
	case EpochCancelled, EpochDone:
		return 0, nil
	}
	for i, s := range ep.slots {
		if pm.takeLocked(s, PlanPos{Epoch: id, Index: i}) {
			removed++
		}
	}
	ep.state = EpochCancelled
	ep.slots = nil
	pm.cancelledAny.Store(true)
	pm.cancelled++
	pm.pending -= removed
	ep.dropped += int64(removed)
	pm.dropped += int64(removed)
	pm.pruneLocked()
	return removed, nil
}

// cancelledEpoch reports whether id belongs to a cancelled epoch — or to
// no known epoch at all, which only happens when a terminal epoch's record
// was pruned; treating that as cancelled keeps late producer items of
// long-gone epochs out of the buffer, where no claim could ever evict them.
func (pm *planManager) cancelledEpoch(id EpochID) bool {
	if !pm.cancelledAny.Load() {
		return false
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochLocked(id)
	return ep == nil || ep.state == EpochCancelled
}

// epochLocked finds a retained epoch by binary search of the issue order,
// or nil. Caller holds mu.
func (pm *planManager) epochLocked(id EpochID) *epochState {
	lo, hi := 0, len(pm.epochs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pm.epochs[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(pm.epochs) && pm.epochs[lo].id == id {
		return pm.epochs[lo]
	}
	return nil
}

// claim atomically takes one plan entry for the name at slot — the
// claim-or-bypass critical section. ok=false means no claimable entry
// exists (unplanned name, entry already claimed by a concurrent consumer,
// or epoch cancelled): the caller bypasses to the backend instead of
// blocking.
func (pm *planManager) claim(slot int32) (PlanClaim, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.heads[slot].Epoch == 0 {
		return PlanClaim{}, false
	}
	pos := pm.heads[slot]
	pm.takeLocked(slot, pos)
	pm.pending--
	pm.inflight++
	if ep := pm.epochLocked(pos.Epoch); ep != nil {
		ep.claimed++
		ep.inflight++
	}
	return PlanClaim{PlanPos: pos, Slot: slot}, true
}

// addLocked makes pos claimable for slot's name, at its place in the
// name's FIFO order. Caller holds mu.
func (pm *planManager) addLocked(slot int32, pos PlanPos) {
	head := pm.heads[slot]
	if head.Epoch == 0 {
		pm.heads[slot] = pos
		return
	}
	if pos.before(head) {
		pm.heads[slot], pos = pos, head
	}
	rest := pm.dups[slot]
	i := 0
	for i < len(rest) && rest[i].before(pos) {
		i++
	}
	rest = append(rest, PlanPos{})
	copy(rest[i+1:], rest[i:])
	rest[i] = pos
	pm.dups[slot] = rest
}

// takeLocked removes pos from slot's claimable entries and reports whether
// it was one. Caller holds mu and accounts pending.
func (pm *planManager) takeLocked(slot int32, pos PlanPos) bool {
	var rest []PlanPos
	if len(pm.dups) > 0 {
		rest = pm.dups[slot]
	}
	if pm.heads[slot] == pos {
		if len(rest) == 0 {
			pm.heads[slot] = PlanPos{}
			return true
		}
		pm.heads[slot], rest = rest[0], rest[1:]
	} else {
		i := slices.Index(rest, pos)
		if i < 0 {
			return false
		}
		rest = append(rest[:i], rest[i+1:]...)
	}
	if len(rest) == 0 {
		delete(pm.dups, slot)
	} else {
		pm.dups[slot] = rest
	}
	return true
}

// nameAt resolves a position to its name when that entry is the next
// claimable one for the name — the precondition of a positional take, which
// the stage checks before it spends a tenant's admission token on one (the
// take itself re-checks it through claimAt). ok=false covers every reason
// the position cannot be taken now: unknown or terminal epoch, index past
// the plan, entry already claimed, or an earlier duplicate of the name
// still unclaimed (FIFO order among duplicates is by-name claim's order).
func (pm *planManager) nameAt(pos PlanPos) (name string, ok bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	slot, ok := pm.slotAtLocked(pos)
	if !ok {
		return "", false
	}
	return pm.names.Name(int(slot)), true
}

// planned reports whether pos lies inside an active epoch's plan, claimed
// or not.
func (pm *planManager) planned(pos PlanPos) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochLocked(pos.Epoch)
	return ep != nil && ep.state == EpochActive && pos.Index >= 0 && pos.Index < len(ep.slots)
}

// slotAtLocked is nameAt's check, reporting the entry's slot: a binary
// search for the epoch and an index into heads, no hashing.
func (pm *planManager) slotAtLocked(pos PlanPos) (int32, bool) {
	ep := pm.epochLocked(pos.Epoch)
	if ep == nil || ep.state != EpochActive || pos.Index < 0 || pos.Index >= len(ep.slots) {
		return 0, false
	}
	slot := ep.slots[pos.Index]
	return slot, pm.heads[slot] == pos
}

// claimAt is the positional twin of claim+deliver, for a sample the caller
// has already found parked (the buffer calls it under the sample's shard
// lock, so claim and take are one step and nothing is ever un-claimed): it
// re-checks nameAt's precondition and, when it still holds, accounts the
// entry as claimed and delivered in one critical section.
func (pm *planManager) claimAt(pos PlanPos) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	slot, ok := pm.slotAtLocked(pos)
	if !ok {
		return false
	}
	pm.takeLocked(slot, pos)
	pm.pending--
	pm.delivered++
	ep := pm.epochLocked(pos.Epoch)
	ep.claimed++
	ep.delivered++
	pm.maybeDoneLocked(ep)
	return true
}

// deliver resolves a claim as a successful buffer take.
func (pm *planManager) deliver(c PlanClaim) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.inflight--
	pm.delivered++
	if ep := pm.epochLocked(c.Epoch); ep != nil {
		ep.inflight--
		ep.delivered++
		pm.maybeDoneLocked(ep)
	}
}

// unclaim returns a claim's entry to its epoch (at its place in the name's
// FIFO order) after a take deadline or shutdown: the sample is still in
// flight or buffered, so a later read of the same name must be able to
// claim it. If the epoch went terminal in the meantime, the entry is
// accounted as dropped instead.
func (pm *planManager) unclaim(c PlanClaim) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.inflight--
	ep := pm.epochLocked(c.Epoch)
	if ep == nil || ep.state != EpochActive {
		pm.dropped++
		if ep != nil {
			ep.inflight--
			ep.dropped++
			pm.maybeDoneLocked(ep)
		}
		return
	}
	ep.inflight--
	ep.claimed--
	// Back into its place in line, not blindly to the front: with several
	// claims of one name out at once they can return in any order.
	pm.addLocked(c.Slot, c.PlanPos)
	pm.pending++
}

// claimDropped resolves a claim whose consumer was woken by an epoch
// cancellation: the entry will never be delivered.
func (pm *planManager) claimDropped(c PlanClaim) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.inflight--
	pm.dropped++
	if ep := pm.epochLocked(c.Epoch); ep != nil {
		ep.inflight--
		ep.dropped++
		pm.maybeDoneLocked(ep)
	}
}

// noteDropped accounts n physical items (buffered samples, in-flight
// producer reads) discarded for an epoch the manager no longer knows —
// residue of a pruned epoch. For known epochs it is a no-op: their entries
// are charged exactly once by the cancel sweep or the claim-resolution
// paths, and the physical carriers those charges refer to must not be
// counted again when they are cleaned up.
func (pm *planManager) noteDropped(id EpochID, n int) {
	if n <= 0 {
		return
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.epochLocked(id) != nil {
		return
	}
	pm.dropped += int64(n)
}

// maybeDoneLocked retires an active epoch once every entry has been
// delivered or dropped — at registration already, for an empty plan.
// Caller holds mu.
func (pm *planManager) maybeDoneLocked(ep *epochState) {
	if ep.state == EpochActive && ep.delivered+ep.dropped >= int64(ep.total) {
		ep.state = EpochDone
		ep.slots = nil
		pm.pruneLocked()
	}
}

// pruneLocked drops the oldest terminal epochs beyond maxEpochHistory.
// Epochs with unresolved claims are kept so blocked consumers' cancel
// predicates always find their epoch. Caller holds mu.
func (pm *planManager) pruneLocked() {
	terminal := 0
	for _, ep := range pm.epochs {
		if ep.state != EpochActive && ep.inflight == 0 {
			terminal++
		}
	}
	if terminal <= maxEpochHistory {
		return
	}
	kept := pm.epochs[:0]
	for _, ep := range pm.epochs {
		if terminal > maxEpochHistory && ep.state != EpochActive && ep.inflight == 0 {
			terminal--
			continue
		}
		kept = append(kept, ep)
	}
	clear(pm.epochs[len(kept):])
	pm.epochs = kept
}

// stats snapshots aggregate plan activity.
func (pm *planManager) stats() PlanStats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	st := PlanStats{
		EpochsSubmitted: pm.submitted,
		EpochsCancelled: pm.cancelled,
		EntriesPending:  pm.pending,
		ClaimsInFlight:  pm.inflight,
		Delivered:       pm.delivered,
		Dropped:         pm.dropped,
	}
	for _, ep := range pm.epochs {
		if ep.state == EpochActive {
			st.EpochsLive++
		}
	}
	return st
}

// statuses lists the retained epochs in submission order.
func (pm *planManager) statuses() []EpochStatus {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]EpochStatus, 0, len(pm.epochs))
	for _, ep := range pm.epochs {
		out = append(out, EpochStatus{
			ID:        ep.id,
			State:     ep.state,
			Submitted: ep.submittedAt,
			Total:     ep.total,
			Enqueued:  ep.total,
			Claimed:   ep.claimed,
			Delivered: ep.delivered,
			Dropped:   ep.dropped,
		})
	}
	return out
}
