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
// one, or 64 KiB long.
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
		if x.Len() != len(names) {
			t.Fatalf("Len = %d, want %d", x.Len(), len(names))
		}
		for i, n := range names {
			if x.Name(i) != n {
				t.Fatalf("Name(%d) = %q, want %q", i, x.Name(i), n)
			}
			if s, ok := x.Slot(strings.Clone(n)); !ok || s != i {
				t.Fatalf("Slot(%q) = %d, %v; want %d", n, s, ok, i)
			}
			if s, ok := x.SlotBytes(bytes.Clone([]byte(n))); !ok || s != i {
				t.Fatalf("SlotBytes(%q) = %d, %v; want %d", n, s, ok, i)
			}
		}
		for _, p := range []string{probe, probe + "x", probe[:len(probe)/2], "", strings.Repeat("n", 1<<16)} {
			want, listed := oracle[p]
			s, ok := x.Slot(p)
			if ok != listed || (ok && s != want) {
				t.Fatalf("Slot(%.40q) = %d, %v; oracle says %d, %v", p, s, ok, want, listed)
			}
			s, ok = x.SlotBytes([]byte(p))
			if ok != listed || (ok && s != want) {
				t.Fatalf("SlotBytes(%.40q) = %d, %v; oracle says %d, %v", p, s, ok, want, listed)
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
