package dataset

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func fixture() *Manifest {
	return MustNew([]Sample{
		{Name: "a.jpg", Size: 100},
		{Name: "b.jpg", Size: 200},
		{Name: "c.jpg", Size: 300},
		{Name: "d.jpg", Size: 400},
	})
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
	}{
		{"empty name", []Sample{{Name: "", Size: 1}}},
		{"negative size", []Sample{{Name: "x", Size: -1}}},
		{"duplicate", []Sample{{Name: "x", Size: 1}, {Name: "x", Size: 2}}},
	}
	for _, c := range cases {
		if _, err := New(c.samples); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

func TestManifestAccessors(t *testing.T) {
	m := fixture()
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	if m.TotalBytes() != 1000 {
		t.Fatalf("TotalBytes = %d, want 1000", m.TotalBytes())
	}
	s, ok := m.Lookup("c.jpg")
	if !ok || s.Size != 300 {
		t.Fatalf("Lookup(c.jpg) = %+v,%v", s, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Fatal("Lookup of missing name reported ok")
	}
	if m.Sample(1).Name != "b.jpg" {
		t.Fatalf("Sample(1) = %+v", m.Sample(1))
	}
}

func TestEpochOrderIsPermutation(t *testing.T) {
	m := fixture()
	order := m.EpochOrder(7, 0)
	seen := make(map[int]bool)
	for _, i := range order {
		if i < 0 || i >= m.Len() || seen[i] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[i] = true
	}
	if len(seen) != m.Len() {
		t.Fatalf("order %v misses indices", order)
	}
}

func TestEpochOrderDeterministic(t *testing.T) {
	m := fixture()
	a := m.EpochOrder(42, 3)
	b := m.EpochOrder(42, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed,epoch) produced different orders: %v vs %v", a, b)
		}
	}
}

func TestEpochOrderVariesByEpoch(t *testing.T) {
	big, err := Synthetic("t", 100, 10_000, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := big.EpochOrder(42, 0)
	b := big.EpochOrder(42, 1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs 0 and 1 produced identical shuffles")
	}
}

func TestEpochFileListMatchesOrder(t *testing.T) {
	m := fixture()
	order := m.EpochOrder(5, 2)
	names := m.EpochFileList(5, 2)
	for i := range order {
		if names[i] != m.Sample(order[i]).Name {
			t.Fatalf("file list diverges from order at %d", i)
		}
	}
}

// Property: EpochOrder is always a valid permutation for arbitrary seeds
// and epochs.
func TestEpochOrderPermutationProperty(t *testing.T) {
	m, err := Synthetic("p", 50, 10_000, 0.4, 99)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, epoch uint8) bool {
		order := m.EpochOrder(seed, int(epoch))
		if len(order) != m.Len() {
			return false
		}
		seen := make([]bool, m.Len())
		for _, i := range order {
			if i < 0 || i >= m.Len() || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticStatistics(t *testing.T) {
	const n = 20000
	const mean = 113_000
	m, err := Synthetic("train", n, mean, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	got := float64(m.TotalBytes()) / float64(m.Len())
	if math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("mean size %v deviates >5%% from %v", got, mean)
	}
	// Log-normal with sigma 0.5 is right-skewed: max should be well above
	// the mean, min below it, and no file below the 1 KiB floor.
	var min, max int64 = 1 << 62, 0
	for i := 0; i < n; i++ {
		s := m.Sample(i).Size
		if s < 1024 {
			t.Fatalf("sample below floor: %d", s)
		}
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max < 2*mean || min > mean/2 {
		t.Fatalf("distribution implausibly narrow: min=%d max=%d", min, max)
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic("x", 0, 100, 0.5, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Synthetic("x", 1, 0, 0.5, 1); err == nil {
		t.Error("meanSize=0 accepted")
	}
}

func TestSyntheticImageNetScaling(t *testing.T) {
	train, val, err := SyntheticImageNet(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := train.Len(), 1281; got != want {
		t.Fatalf("train files = %d, want %d", got, want)
	}
	if got, want := val.Len(), 50; got != want {
		t.Fatalf("val files = %d, want %d", got, want)
	}
	// Volume should scale with file count: ≈ 138 GiB * 0.001.
	wantBytes := float64(ImageNetTrainBytes) * 0.001
	if got := float64(train.TotalBytes()); math.Abs(got-wantBytes)/wantBytes > 0.10 {
		t.Fatalf("train bytes %v deviates >10%% from %v", got, wantBytes)
	}
}

func TestSyntheticImageNetRejectsBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if _, _, err := SyntheticImageNet(s, 1); err == nil {
			t.Errorf("scale %v accepted", s)
		}
	}
	if _, _, err := SyntheticImageNet(1e-9, 1); err == nil {
		t.Error("scale yielding empty split accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.txt")
	m := fixture()
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != m.Len() || got.TotalBytes() != m.TotalBytes() {
		t.Fatalf("round trip mismatch: %d/%d bytes vs %d/%d", got.Len(), got.TotalBytes(), m.Len(), m.TotalBytes())
	}
	for i := 0; i < m.Len(); i++ {
		if got.Sample(i) != m.Sample(i) {
			t.Fatalf("sample %d: %+v vs %+v", i, got.Sample(i), m.Sample(i))
		}
	}
}

func TestReadManifestSkipsCommentsAndBlank(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.txt")
	content := "# header\n\na.jpg 10\n  \nb.jpg 20\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestReadManifestMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.txt")
	if err := os.WriteFile(path, []byte("no-size-here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("malformed manifest accepted")
	}
}

func TestGenerateAndFromDir(t *testing.T) {
	dir := t.TempDir()
	m := MustNew([]Sample{
		{Name: "train/0000001.jpg", Size: 2048},
		{Name: "train/0000002.jpg", Size: 4096},
		{Name: "val/0000001.jpg", Size: 1024},
	})
	if err := Generate(dir, m, 11); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Len(); i++ {
		s := m.Sample(i)
		info, err := os.Stat(filepath.Join(dir, filepath.FromSlash(s.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != s.Size {
			t.Fatalf("%s: size %d, want %d", s.Name, info.Size(), s.Size)
		}
	}
	scanned, err := FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if scanned.Len() != m.Len() {
		t.Fatalf("FromDir found %d files, want %d", scanned.Len(), m.Len())
	}
	for i := 0; i < m.Len(); i++ {
		got, ok := scanned.Lookup(m.Sample(i).Name)
		if !ok || got.Size != m.Sample(i).Size {
			t.Fatalf("FromDir lost %q", m.Sample(i).Name)
		}
	}
}

func TestMustNewPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew([]Sample{{Name: "", Size: 1}})
}

func TestEmptyManifest(t *testing.T) {
	m := MustNew(nil)
	if m.Len() != 0 || m.TotalBytes() != 0 || m.MaxSize() != 0 {
		t.Fatal("empty manifest stats not zero")
	}
}

func TestWriteManifestBadPath(t *testing.T) {
	if err := WriteManifest(filepath.Join(t.TempDir(), "no", "such", "dir", "m.txt"), fixture()); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

func TestReadManifestMissingFile(t *testing.T) {
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "ghost.txt")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestGenerateBadDir(t *testing.T) {
	// A file where a directory must be created forces a MkdirAll error.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "train")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := MustNew([]Sample{{Name: "train/a.jpg", Size: 10}})
	if err := Generate(dir, m, 1); err == nil {
		t.Fatal("Generate over a blocking file succeeded")
	}
}

func TestManifestRoundTripLarge(t *testing.T) {
	// A profile-scale manifest survives serialization intact.
	train, _, err := SyntheticImageNet(0.0005, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := WriteManifest(path, train); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != train.Len() || got.TotalBytes() != train.TotalBytes() {
		t.Fatalf("round trip lost data: %d/%d vs %d/%d",
			got.Len(), got.TotalBytes(), train.Len(), train.TotalBytes())
	}
}

// FuzzReadManifest hardens the manifest parser: arbitrary text never
// panics, and accepted manifests re-serialize to an equivalent manifest.
func FuzzReadManifest(f *testing.F) {
	f.Add("a.jpg 10\nb.jpg 20\n")
	f.Add("# comment\n\n  x 1  \n")
	f.Add("broken line\n")
	f.Add("dup 1\ndup 2\n")
	f.Fuzz(func(t *testing.T, content string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "m.txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Skip()
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.txt")
		if err := WriteManifest(out, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadManifest(out)
		if err != nil {
			t.Fatalf("re-read of serialized manifest failed: %v", err)
		}
		if back.Len() != m.Len() || back.TotalBytes() != m.TotalBytes() {
			t.Fatal("serialization not idempotent")
		}
	})
}

func TestEpochSeedSpreads(t *testing.T) {
	// Adjacent epochs must not map to adjacent seeds (the RNG would then
	// correlate shuffles).
	s0 := epochSeed(1, 0)
	s1 := epochSeed(1, 1)
	if s0 == s1 || s0+1 == s1 {
		t.Fatalf("epoch seeds too close: %d, %d", s0, s1)
	}
}
