package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	kind := datasetKinds["med"]
	a, err := ensureDataset(t.TempDir(), kind, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ensureDataset(t.TempDir(), kind, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ensureDataset(t.TempDir(), kind, 64, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Errorf("same seed, different manifest hash: %s vs %s", a.Hash, b.Hash)
	}
	if a.Hash == c.Hash {
		t.Errorf("different seeds, same manifest hash %s", a.Hash)
	}
	if len(a.Val) != 8 || len(a.Planned) != 56 {
		t.Errorf("val/planned split = %d/%d, want every 8th file unplanned", len(a.Val), len(a.Planned))
	}
	for i := range a.Entries {
		e := &a.Entries[i]
		got, err := os.ReadFile(filepath.Join(a.Dir, filepath.FromSlash(e.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if !e.verifyFull(got) || !e.verifyQuick(got) {
			t.Fatalf("%s does not match its own ground truth", e.Name)
		}
	}
}

// A matching manifest is reused without touching file contents, so damage
// done to a file after generation reaches the run that must report it; a
// manifest for another seed is replaced.
func TestDatasetReuse(t *testing.T) {
	root := t.TempDir()
	kind := datasetKinds["small"]
	g, err := ensureDataset(root, kind, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(g.Dir, filepath.FromSlash(g.Entries[3].Name))
	flipByte(t, victim, g.Entries[3].Size/2)

	again, err := ensureDataset(root, kind, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != g.Hash || len(again.Entries) != 32 {
		t.Fatalf("reloaded manifest differs: %s vs %s", again.Hash, g.Hash)
	}
	damaged, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if again.Entries[3].verifyFull(damaged) {
		t.Error("reuse regenerated the damaged file instead of keeping it")
	}
	if !again.Entries[3].verifyQuick(damaged) {
		t.Error("mid-file damage should pass the head/tail fingerprint")
	}

	other, err := ensureDataset(root, kind, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash == g.Hash {
		t.Error("another seed reused the old directory")
	}
	if _, err := os.Stat(filepath.Join(g.Dir, "small.manifest")); err == nil {
		t.Error("the manifest is inside the dataset root, where Open would serve it")
	}
}

func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[at] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
