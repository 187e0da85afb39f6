package core

import (
	"fmt"

	"github.com/dsrhaslab/prisma-go/internal/dataset"
)

// Names stop at the stage's boundary (DESIGN.md §12). The one name table is
// the dataset manifest's flat index, a *dataset.Names the stage and its
// plan manager share; it is fixed before traffic, so lookups
// never lock. A name is resolved once, where it enters the stage: an
// unlisted name is refused there, and below it the plan store, the claims
// and the producers work on its slot. Every name handed down is the table's
// own string for it, and every read tells the leaf its slot
// (storage.Request.Slot is slot + 1).

// planSlots resolves a submitted plan to slots in x; the first unlisted
// name refuses the plan.
func planSlots(x *dataset.Names, names []string) ([]int32, error) {
	return resolve(len(names), func(i int) (int, bool) { return x.Slot(names[i]) },
		func(i int) string { return names[i] })
}

// planSlotsBytes is planSlots for names still in their wire bytes: only the
// name that refuses the plan costs a string.
func planSlotsBytes(x *dataset.Names, names [][]byte) ([]int32, error) {
	return resolve(len(names), func(i int) (int, bool) { return x.SlotBytes(names[i]) },
		func(i int) string { return string(names[i]) })
}

func resolve(n int, lookup func(i int) (int, bool), name func(i int) string) ([]int32, error) {
	slots := make([]int32, n)
	for i := range slots {
		s, ok := lookup(i)
		if !ok {
			return nil, fmt.Errorf("prisma: plan references unknown file %q", name(i))
		}
		slots[i] = int32(s)
	}
	return slots, nil
}

// slotNames returns x's own strings for slots.
func slotNames(x *dataset.Names, slots []int32) []string {
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = x.Name(int(s))
	}
	return out
}
