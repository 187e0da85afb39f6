package core

import (
	"errors"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
)

// Plan-lifecycle errors (DESIGN.md §12).
var (
	// ErrNoPrefetcher is returned by Stage plan operations when the stage
	// has no prefetch object attached — distinct from ErrClosed, which
	// means a previously working data plane has shut down.
	ErrNoPrefetcher = errors.New("core: stage has no prefetch object")
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
// "no epoch" (items that did not come through the plan queue).
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
// Planned→Take window for a second consumer to fall into).
type PlanClaim struct {
	Name string
	PlanPos
}

// PlanResult reports one epoch submission: the issued id and how many
// entries were actually enqueued (equal to the plan length on success;
// smaller when the submission aborted mid-loop).
type PlanResult struct {
	Epoch    EpochID
	Enqueued int
}

// Epoch lifecycle states.
const (
	// EpochSubmitting: entries are being enqueued; none are claimable yet.
	EpochSubmitting = "submitting"
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
	Enqueued  int           `json:"enqueued"` // entries that reached the queue
	Claimed   int64         `json:"claimed"`  // claims taken (cumulative)
	Delivered int64         `json:"delivered"`
	Dropped   int64         `json:"dropped"` // cancelled/aborted/skipped entries
}

// PlanStats aggregates plan-manager activity for StageStats.
type PlanStats struct {
	EpochsSubmitted int64 `json:"epochs_submitted"`
	EpochsCancelled int64 `json:"epochs_cancelled"`
	EpochsLive      int   `json:"epochs_live"`     // submitting or active
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
	enqueued    int
	claimed     int64 // cumulative claims
	inflight    int   // claims not yet resolved (delivered/unclaimed/dropped)
	delivered   int64
	dropped     int64
	// order is the submitted name list, kept while the epoch is active so a
	// position resolves to its name (claimAt); released once terminal.
	order []string
}

// planManager owns the plan lifecycle: epochs move registered → claimed →
// delivered (or → cancelled), and every entry is accounted exactly once as
// delivered or dropped. It replaces the prefetcher's ad-hoc
// planned-multiplicity map, whose Planned→Take window and
// no-rollback-on-partial-submit were the hang class this manager exists to
// kill.
//
// Lock discipline: mu is a leaf lock — no planManager method touches the
// queue, the buffer, or the prefetcher mutex. Buffer shards and the plan
// queue may call into the manager (put filter, cancel predicates) while
// holding their own locks.
type planManager struct {
	env conc.Env

	mu     conc.Mutex
	nextID EpochID
	epochs map[EpochID]*epochState
	order  []EpochID // issue order, for Epochs() listing and pruning
	// entries holds each name's oldest claimable entry (present = at least
	// one) and more a duplicated name's later ones, FIFO by epoch then
	// index. Nearly every plan names a sample once per epoch, so entries is
	// the one map a claim touches and more is consulted only when it is
	// non-empty.
	entries map[string]PlanPos
	more    map[string][]PlanPos
	sized   int // the plan length entries was last pre-sized for

	pending  int // total claimable entries across names
	inflight int // claims not yet resolved

	submitted, cancelled int64
	delivered, dropped   int64
}

func newPlanManager(env conc.Env) *planManager {
	pm := &planManager{
		env:     env,
		epochs:  make(map[EpochID]*epochState),
		entries: make(map[string]PlanPos),
		more:    make(map[string][]PlanPos),
	}
	pm.mu = env.NewMutex()
	return pm
}

// begin issues a new epoch id in the submitting state. No entries are
// claimable yet: a consumer racing the submission bypasses to the backend
// instead of blocking on a sample that may never be enqueued.
func (pm *planManager) begin(total int) EpochID {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.nextID++
	id := pm.nextID
	pm.epochs[id] = &epochState{
		id:          id,
		state:       EpochSubmitting,
		submittedAt: pm.env.Now(),
		total:       total,
	}
	pm.order = append(pm.order, id)
	pm.submitted++
	return id
}

// activate registers all of the epoch's entries as claimable in one
// critical section and moves it to the active state — the all-or-nothing
// commit point of a submission. It reports false when the epoch was
// cancelled while submitting; no entries are registered in that case.
func (pm *planManager) activate(id EpochID, names []string) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochs[id]
	if ep == nil || ep.state != EpochSubmitting {
		return false
	}
	ep.state = EpochActive
	ep.enqueued = len(names)
	// A copy: the caller's slice is the caller's to reuse after submitting.
	ep.order = append([]string(nil), names...)
	if len(pm.entries) == 0 && len(names) > pm.sized {
		// Sized once for the plan instead of doubling its way up under mu.
		pm.sized = len(names)
		pm.entries = make(map[string]PlanPos, len(names))
	}
	for i, n := range names {
		pm.addLocked(n, PlanPos{Epoch: id, Index: i})
	}
	pm.pending += len(names)
	return true
}

// abort marks a partially submitted epoch cancelled (queue.Put failed after
// enqueued entries). Nothing was registered, so there are no entries to
// remove and no claim can ever resolve them: all enqueued entries are
// charged as dropped here, and the caller's residue drop is pure physical
// cleanup. The put filter keeps rejecting the epoch's items from then on.
func (pm *planManager) abort(id EpochID, enqueued int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochs[id]
	if ep == nil || ep.state != EpochSubmitting {
		return
	}
	ep.state = EpochCancelled
	ep.enqueued = enqueued
	ep.dropped += int64(enqueued)
	pm.dropped += int64(enqueued)
	pm.cancelled++
	pm.pruneLocked()
}

// abandon resolves the submitter's side of a cancel-while-submitting race:
// activate found the epoch already cancelled, so none of its entries were
// registered and none can be claimed. Like abort, it charges all enqueued
// entries as dropped — but the cancel already moved the state, so it only
// fills in the accounting the sweep could not (the sweep saw an empty
// registry and an unknown enqueued count).
func (pm *planManager) abandon(id EpochID, enqueued int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochs[id]
	if ep == nil || ep.state != EpochCancelled || ep.enqueued != 0 {
		return
	}
	ep.enqueued = enqueued
	ep.dropped += int64(enqueued)
	pm.dropped += int64(enqueued)
}

// cancel moves an epoch to the cancelled state and unregisters its
// unclaimed entries, reporting how many were removed. Cancelling an
// already-terminal epoch is a no-op (idempotent, so the control path can
// safely retry). The caller is responsible for dropping the epoch's
// queued/buffered items and waking blocked consumers.
func (pm *planManager) cancel(id EpochID) (removed int, err error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochs[id]
	if ep == nil {
		return 0, ErrUnknownEpoch
	}
	switch ep.state {
	case EpochCancelled, EpochDone:
		return 0, nil
	}
	wasSubmitting := ep.state == EpochSubmitting
	ep.state = EpochCancelled
	ep.order = nil
	pm.cancelled++
	if !wasSubmitting {
		for name, head := range pm.entries {
			rest := pm.more[name]
			kept := rest[:0]
			for _, p := range rest {
				if p.Epoch == id {
					removed++
				} else {
					kept = append(kept, p)
				}
			}
			if head.Epoch == id {
				removed++
				if len(kept) == 0 {
					delete(pm.entries, name)
					delete(pm.more, name)
					continue
				}
				pm.entries[name], kept = kept[0], kept[1:]
			}
			if len(kept) == 0 {
				delete(pm.more, name)
			} else {
				pm.more[name] = kept
			}
		}
		pm.pending -= removed
		ep.dropped += int64(removed)
		pm.dropped += int64(removed)
	}
	pm.pruneLocked()
	return removed, nil
}

// cancelledEpoch reports whether id belongs to a cancelled epoch — or to
// no known epoch at all, which only happens when a terminal epoch's record
// was pruned; treating that as cancelled keeps late producer items of
// long-gone epochs out of the buffer, where no claim could ever evict them.
func (pm *planManager) cancelledEpoch(id EpochID) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	ep := pm.epochs[id]
	return ep == nil || ep.state == EpochCancelled
}

// claim atomically takes one plan entry for name — the claim-or-bypass
// critical section. ok=false means no claimable entry exists (unplanned
// name, entry already claimed by a concurrent consumer, or epoch
// cancelled): the caller bypasses to the backend instead of blocking.
func (pm *planManager) claim(name string) (PlanClaim, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pos, ok := pm.entries[name]
	if !ok {
		return PlanClaim{}, false
	}
	pm.popFrontLocked(name)
	pm.inflight++
	if ep := pm.epochs[pos.Epoch]; ep != nil {
		ep.claimed++
		ep.inflight++
	}
	return PlanClaim{Name: name, PlanPos: pos}, true
}

// addLocked makes pos claimable for name, at its place in the name's FIFO
// order. Caller holds mu.
func (pm *planManager) addLocked(name string, pos PlanPos) {
	head, dup := pm.entries[name]
	if !dup {
		pm.entries[name] = pos
		return
	}
	if pos.before(head) {
		pm.entries[name], pos = pos, head
	}
	rest := pm.more[name]
	i := 0
	for i < len(rest) && rest[i].before(pos) {
		i++
	}
	rest = append(rest, PlanPos{})
	copy(rest[i+1:], rest[i:])
	rest[i] = pos
	pm.more[name] = rest
}

// popFrontLocked removes name's oldest claimable entry. Caller holds mu.
func (pm *planManager) popFrontLocked(name string) {
	pm.pending--
	if len(pm.more) > 0 {
		if rest, dup := pm.more[name]; dup {
			pm.entries[name] = rest[0]
			if len(rest) == 1 {
				delete(pm.more, name)
			} else {
				pm.more[name] = rest[1:]
			}
			return
		}
	}
	delete(pm.entries, name)
}

// nameAt resolves a position to its name when that entry is the next
// claimable one for the name — the cheap precondition of a positional take,
// checked before any buffer lock is touched. ok=false covers every reason
// the position cannot be taken now: unknown or terminal epoch, index past
// the plan, entry already claimed, or an earlier duplicate of the name
// still unclaimed (FIFO order among duplicates is by-name claim's order).
func (pm *planManager) nameAt(pos PlanPos) (name string, ok bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.nameAtLocked(pos)
}

func (pm *planManager) nameAtLocked(pos PlanPos) (string, bool) {
	ep := pm.epochs[pos.Epoch]
	if ep == nil || ep.state != EpochActive || pos.Index < 0 || pos.Index >= len(ep.order) {
		return "", false
	}
	name := ep.order[pos.Index]
	if head, ok := pm.entries[name]; !ok || head != pos {
		return "", false
	}
	return name, true
}

// claimAt is the positional twin of claim+deliver, for a sample the caller
// has already found parked (the buffer calls it under the sample's shard
// lock, so claim and take are one step and nothing is ever un-claimed): it
// re-checks nameAt's precondition and, when it still holds, accounts the
// entry as claimed and delivered in one critical section.
func (pm *planManager) claimAt(pos PlanPos) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	name, ok := pm.nameAtLocked(pos)
	if !ok {
		return false
	}
	pm.popFrontLocked(name)
	pm.delivered++
	ep := pm.epochs[pos.Epoch]
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
	if ep := pm.epochs[c.Epoch]; ep != nil {
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
	ep := pm.epochs[c.Epoch]
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
	pm.addLocked(c.Name, c.PlanPos)
	pm.pending++
}

// claimDropped resolves a claim whose consumer was woken by an epoch
// cancellation: the entry will never be delivered.
func (pm *planManager) claimDropped(c PlanClaim) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.inflight--
	pm.dropped++
	if ep := pm.epochs[c.Epoch]; ep != nil {
		ep.inflight--
		ep.dropped++
		pm.maybeDoneLocked(ep)
	}
}

// noteDropped accounts n physical items (queued entries, buffered samples,
// in-flight producer reads) discarded for an epoch the manager no longer
// knows — residue of a pruned epoch. For known epochs it is a no-op: their
// entries are charged exactly once by the cancel sweep, abort/abandon, or
// the claim-resolution paths, and the physical carriers those charges refer
// to must not be counted again when they are cleaned up.
func (pm *planManager) noteDropped(id EpochID, n int) {
	if n <= 0 {
		return
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.epochs[id] != nil {
		return
	}
	pm.dropped += int64(n)
}

// hasEntry reports whether name has a claimable plan entry.
func (pm *planManager) hasEntry(name string) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	_, ok := pm.entries[name]
	return ok
}

// maybeDoneLocked retires an active epoch once every enqueued entry has
// been delivered or dropped. Caller holds mu.
func (pm *planManager) maybeDoneLocked(ep *epochState) {
	if ep.state == EpochActive && ep.delivered+ep.dropped >= int64(ep.enqueued) && ep.enqueued > 0 {
		ep.state = EpochDone
		ep.order = nil
		pm.pruneLocked()
	}
}

// pruneLocked drops the oldest terminal epochs beyond maxEpochHistory.
// Epochs with unresolved claims are kept so blocked consumers' cancel
// predicates always find their epoch. Caller holds mu.
func (pm *planManager) pruneLocked() {
	terminal := 0
	for _, id := range pm.order {
		ep := pm.epochs[id]
		if ep != nil && (ep.state == EpochCancelled || ep.state == EpochDone) && ep.inflight == 0 {
			terminal++
		}
	}
	if terminal <= maxEpochHistory {
		return
	}
	kept := pm.order[:0]
	for _, id := range pm.order {
		ep := pm.epochs[id]
		if terminal > maxEpochHistory && ep != nil &&
			(ep.state == EpochCancelled || ep.state == EpochDone) && ep.inflight == 0 {
			delete(pm.epochs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	pm.order = kept
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
		if ep.state == EpochSubmitting || ep.state == EpochActive {
			st.EpochsLive++
		}
	}
	return st
}

// statuses lists the retained epochs in submission order.
func (pm *planManager) statuses() []EpochStatus {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]EpochStatus, 0, len(pm.order))
	for _, id := range pm.order {
		ep := pm.epochs[id]
		if ep == nil {
			continue
		}
		out = append(out, EpochStatus{
			ID:        ep.id,
			State:     ep.state,
			Submitted: ep.submittedAt,
			Total:     ep.total,
			Enqueued:  ep.enqueued,
			Claimed:   ep.claimed,
			Delivered: ep.delivered,
			Dropped:   ep.dropped,
		})
	}
	return out
}
