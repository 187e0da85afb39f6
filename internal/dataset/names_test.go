package dataset

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// FuzzManifestIndex checks the flat index against a map[string]int oracle.
// The input is a name set (newline-separated; duplicates and empty lines
// dropped) and a probe. Every listed name must resolve to its position —
// by string, by bytes, and through a copy with different backing memory —
// and a probe resolves exactly when the oracle lists it: no unlisted name
// ever resolves, whether it is empty, a prefix or extension of a listed
// one, or 64 KiB long. Adding the names one by one to an empty set must
// give the same slots as building the set at once.
func FuzzManifestIndex(f *testing.F) {
	f.Add("a\nab\nabc\nb", "ab")
	f.Add("train/0000001.jpg\ntrain/0000010.jpg\ntrain/0000100.jpg", "train/000001")
	f.Add("x", "")
	f.Add("", "anything")
	f.Add("a\na\nb", "a\n")
	f.Add(strings.Repeat("n", 1<<16)+"\nshort", strings.Repeat("n", 1<<16))
	f.Add(strings.Repeat("n", 1<<16), strings.Repeat("n", 1<<16-1)+"m")
	f.Fuzz(func(t *testing.T, set, probe string) {
		var names []string
		oracle := map[string]int{}
		for _, n := range strings.Split(set, "\n") {
			if _, dup := oracle[n]; n == "" || dup {
				continue
			}
			oracle[n] = len(names)
			names = append(names, n)
		}
		x, err := NewNames(names)
		if err != nil {
			t.Fatalf("NewNames: %v", err)
		}
		var grown Names
		for i, n := range names {
			if s, added := grown.Add(n); !added || s != i {
				t.Fatalf("Add(%q) = %d, %v; want %d, true", n, s, added, i)
			}
		}
		if len(names) > 0 {
			if s, added := grown.Add(strings.Clone(names[0])); added || s != 0 {
				t.Fatalf("re-adding the first name = %d, %v", s, added)
			}
		}
		for _, ix := range []*Names{x, &grown} {
			if ix.Len() != len(names) {
				t.Fatalf("Len = %d, want %d", ix.Len(), len(names))
			}
			for i, n := range names {
				if ix.Name(i) != n {
					t.Fatalf("Name(%d) = %q, want %q", i, ix.Name(i), n)
				}
				if s, ok := ix.Slot(strings.Clone(n)); !ok || s != i {
					t.Fatalf("Slot(%q) = %d, %v; want %d", n, s, ok, i)
				}
				if s, ok := ix.SlotBytes(bytes.Clone([]byte(n))); !ok || s != i {
					t.Fatalf("SlotBytes(%q) = %d, %v; want %d", n, s, ok, i)
				}
			}
			for _, p := range []string{probe, probe + "x", probe[:len(probe)/2], "", strings.Repeat("n", 1<<16)} {
				want, listed := oracle[p]
				s, ok := ix.Slot(p)
				if ok != listed || (ok && s != want) {
					t.Fatalf("Slot(%.40q) = %d, %v; oracle says %d, %v", p, s, ok, want, listed)
				}
				s, ok = ix.SlotBytes([]byte(p))
				if ok != listed || (ok && s != want) {
					t.Fatalf("SlotBytes(%.40q) = %d, %v; oracle says %d, %v", p, s, ok, want, listed)
				}
			}
		}
	})
}

// TestNamesRefuseEmptyAndDuplicates: a name set, like the manifest it
// indexes, refuses an empty or repeated name.
func TestNamesRefuseEmptyAndDuplicates(t *testing.T) {
	for _, set := range [][]string{{""}, {"a", ""}, {"a", "b", "a"}} {
		if _, err := NewNames(set); err == nil {
			t.Errorf("NewNames(%q) succeeded", set)
		}
	}
}

// TestManifestNamesShareOneArena: a manifest's names are slices of one
// string, and Sample hands out the manifest's own string.
func TestManifestNamesShareOneArena(t *testing.T) {
	m := fixture()
	first := m.Sample(0).Name
	for i := 1; i < m.Len(); i++ {
		n := m.Sample(i).Name
		if m.Names().Name(i) != n {
			t.Fatalf("Names().Name(%d) = %q, Sample says %q", i, m.Names().Name(i), n)
		}
		if got := int(uintptr(unsafe.Pointer(unsafe.StringData(n))) - uintptr(unsafe.Pointer(unsafe.StringData(first)))); got != i*len(first) {
			t.Fatalf("sample %d starts %d bytes into the arena, want %d", i, got, i*len(first))
		}
	}
}
