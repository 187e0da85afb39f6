package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
)

// nameTable resolves sample names to slots for a prefetcher and its stage
// (DESIGN.md §12). A name is resolved once, where it enters the stage;
// below that the plan store, the claims and the producers work on its slot,
// and every name handed down is the table's own string for it.
//
// With the dataset manifest attached the table is the manifest's flat
// index: fixed, so lookups never lock, an unlisted name is refused, and a
// slot + 1 rides each storage.Request to the leaf. Without one (sims, unit
// tests) it holds every name a plan has named so far, grown copy-on-write
// under mu so lookups still never lock; those slots mean nothing to the
// leaf.
type nameTable struct {
	cur      atomic.Pointer[dataset.Names]
	manifest bool       // set once, before traffic
	mu       sync.Mutex // serializes growth of a planned-names table
}

func newNameTable() *nameTable {
	t := &nameTable{}
	t.cur.Store(&dataset.Names{})
	return t
}

// setManifest makes the manifest's index the table. Call before traffic.
func (t *nameTable) setManifest(m *dataset.Manifest) {
	t.cur.Store(m.Names())
	t.manifest = true
}

func (t *nameTable) slot(name string) (int32, bool) {
	s, ok := t.cur.Load().Slot(name)
	return int32(s), ok
}

func (t *nameTable) slotBytes(name []byte) (int32, bool) {
	s, ok := t.cur.Load().SlotBytes(name)
	return int32(s), ok
}

// name returns the table's own string for slot.
func (t *nameTable) name(slot int32) string { return t.cur.Load().Name(int(slot)) }

func (t *nameTable) len() int { return t.cur.Load().Len() }

// leafSlot is what a read of slot tells the leaf (storage.Request.Slot):
// the manifest position + 1, or 0 when the table is not the manifest's.
func (t *nameTable) leafSlot(slot int32) int {
	if t.manifest {
		return int(slot) + 1
	}
	return 0
}

// names returns the table's own strings for slots.
func (t *nameTable) names(slots []int32) []string {
	x := t.cur.Load()
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = x.Name(int(s))
	}
	return out
}

// plan resolves a submitted plan to slots. Against a manifest the first
// unlisted name refuses the plan; otherwise the names the table lacks are
// added to it.
func (t *nameTable) plan(names []string) ([]int32, error) {
	x := t.cur.Load()
	return t.resolve(len(names), func(i int) (int, bool) { return x.Slot(names[i]) },
		func(i int) string { return names[i] })
}

// planBytes is plan for names still in their wire bytes: only a name the
// table has to add costs a string.
func (t *nameTable) planBytes(names [][]byte) ([]int32, error) {
	x := t.cur.Load()
	return t.resolve(len(names), func(i int) (int, bool) { return x.SlotBytes(names[i]) },
		func(i int) string { return string(names[i]) })
}

// resolve looks up the n names of a plan, then adds the missing ones to a
// copy of the table that replaces it.
func (t *nameTable) resolve(n int, lookup func(i int) (int, bool), name func(i int) string) ([]int32, error) {
	slots := make([]int32, n)
	missing := false
	for i := range slots {
		s, ok := lookup(i)
		if !ok {
			if t.manifest {
				return nil, fmt.Errorf("prisma: plan references unknown file %q", name(i))
			}
			s, missing = -1, true
		}
		slots[i] = int32(s)
	}
	if missing {
		t.mu.Lock()
		x := t.cur.Load().Clone()
		for i, s := range slots {
			if s < 0 {
				added, _ := x.Add(name(i))
				slots[i] = int32(added)
			}
		}
		t.cur.Store(x)
		t.mu.Unlock()
	}
	return slots, nil
}
