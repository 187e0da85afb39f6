package dataset

import (
	"fmt"
	"hash/maphash"
	"strings"
	"unsafe"
)

// Names is a set of distinct, non-empty names, each at a slot: its position
// in the list the set was built from. It is the data plane's one name → slot
// index (DESIGN.md §12): a name is resolved once, where it enters, and
// everything below works on its slot and on the Names' own string for it.
//
// The index is open-addressed: a []uint64 of (hash tag, slot + 1) pairs,
// kept at most half full, probed linearly. Names are compared byte by byte
// only on a tag match. The hash is hash/maphash under a seed drawn per
// process, so names arriving over a socket cannot be chosen to collide.
//
// The zero value is an empty set. A set is fixed once built, so lookups
// may run concurrently.
type Names struct {
	names []string // slot → name
	tab   []uint64 // tag<<32 | slot+1; 0 is an empty bucket
}

// hashSeed is the hash seed of every Names in the process.
var hashSeed = maphash.MakeSeed()

// NewNames indexes names, which must be distinct and non-empty, at their
// positions. The names are copied into one arena, so the set holds two
// allocations for its strings however many there are.
func NewNames(names []string) (*Names, error) {
	total := 0
	for _, n := range names {
		total += len(n)
	}
	var arena strings.Builder
	arena.Grow(total)
	for _, n := range names {
		arena.WriteString(n)
	}
	all := arena.String()
	x := &Names{names: make([]string, len(names))}
	x.tab = make([]uint64, tableSize(len(names)))
	off := 0
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("dataset: sample %d has empty name", i)
		}
		x.names[i] = all[off : off+len(n)]
		off += len(n)
		if _, dup := x.Slot(n); dup {
			return nil, fmt.Errorf("dataset: duplicate sample name %q", n)
		}
		x.insert(maphash.String(hashSeed, n), i)
	}
	return x, nil
}

// tableSize is the smallest power of two holding n entries at most half
// full.
func tableSize(n int) int {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return size
}

// Len reports how many names the set holds.
func (x *Names) Len() int { return len(x.names) }

// Name returns the set's own string for slot.
func (x *Names) Name(slot int) string { return x.names[slot] }

// Slot reports name's slot.
func (x *Names) Slot(name string) (int, bool) {
	if len(x.tab) == 0 {
		return 0, false
	}
	h := maphash.String(hashSeed, name)
	mask := uint64(len(x.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := x.tab[i]
		if e == 0 {
			return 0, false
		}
		if e>>32 == h>>32 {
			if s := int(uint32(e)) - 1; x.names[s] == name {
				return s, true
			}
		}
	}
}

// SlotBytes is Slot for a name still in its wire bytes: it resolves
// without allocating, through a string view of name that Slot does not
// keep.
func (x *Names) SlotBytes(name []byte) (int, bool) {
	return x.Slot(unsafe.String(unsafe.SliceData(name), len(name)))
}

// insert places slot, whose name hashed to h, in the first empty bucket
// of its probe sequence.
func (x *Names) insert(h uint64, slot int) {
	mask := uint64(len(x.tab) - 1)
	i := h & mask
	for x.tab[i] != 0 {
		i = (i + 1) & mask
	}
	x.tab[i] = h>>32<<32 | uint64(slot+1)
}
