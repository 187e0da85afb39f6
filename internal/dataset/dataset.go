// Package dataset models DL training datasets as manifests of named,
// sized samples. It provides the deterministic per-epoch shuffling whose
// result is the "filenames list" the DL framework shares with PRISMA
// (paper §IV), a synthetic ImageNet generator matching the paper's
// evaluation dataset (1.28 M training images ≈ 138 GiB, 50 k validation
// images ≈ 6 GiB), and an on-disk generator for real-mode runs.
//
// A manifest's names live in one arena — one string that every name is a
// slice of — behind a flat index (Names): an open-addressed []uint64 of
// (hash tag, slot) pairs kept at most half full, under a hash/maphash seed
// drawn per process so names from a socket cannot be made to collide, and
// compared byte by byte only on a tag match. A name's slot is its position
// in the manifest. The index resolves wire bytes without allocating, and
// the data plane resolves each name once, where it enters, and then works
// on its slot and on the manifest's own string for it.
package dataset

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Sample is one training or validation file.
type Sample struct {
	Name string
	Size int64
}

// Manifest is an immutable ordered collection of samples with name lookup.
// Its names live in one arena behind a flat index (Names); a sample's
// position in the manifest is its slot there.
type Manifest struct {
	names *Names
	sizes []int64
	total int64
	max   int64
}

// New builds a manifest from samples. Sample names must be unique and
// non-empty, sizes non-negative.
func New(samples []Sample) (*Manifest, error) {
	names := make([]string, len(samples))
	m := &Manifest{sizes: make([]int64, len(samples))}
	for i, s := range samples {
		if s.Size < 0 {
			return nil, fmt.Errorf("dataset: sample %q has negative size %d", s.Name, s.Size)
		}
		names[i], m.sizes[i] = s.Name, s.Size
		m.total += s.Size
		m.max = max(m.max, s.Size)
	}
	var err error
	if m.names, err = NewNames(names); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNew is New panicking on error, for static test fixtures.
func MustNew(samples []Sample) *Manifest {
	m, err := New(samples)
	if err != nil {
		panic(err)
	}
	return m
}

// Len reports the number of samples.
func (m *Manifest) Len() int { return len(m.sizes) }

// Sample returns the i-th sample in manifest order. Its Name is the
// manifest's own string.
func (m *Manifest) Sample(i int) Sample { return Sample{Name: m.names.Name(i), Size: m.sizes[i]} }

// Names exposes the manifest's name index: slot i is the i-th sample.
func (m *Manifest) Names() *Names { return m.names }

// Lookup finds a sample by name.
func (m *Manifest) Lookup(name string) (Sample, bool) {
	i, ok := m.names.Slot(name)
	if !ok {
		return Sample{}, false
	}
	return m.Sample(i), true
}

// Index reports name's position in manifest order.
func (m *Manifest) Index(name string) (int, bool) { return m.names.Slot(name) }

// TotalBytes reports the sum of all sample sizes.
func (m *Manifest) TotalBytes() int64 { return m.total }

// MaxSize reports the largest sample's size, or zero for an empty
// manifest.
func (m *Manifest) MaxSize() int64 { return m.max }

// EpochOrder returns the deterministic shuffled visit order for the given
// epoch: a permutation of [0, Len) produced by a Fisher-Yates shuffle
// seeded with (seed, epoch). Identical inputs always yield identical
// permutations — the property that lets the framework and PRISMA agree on
// the request order without coordination (paper §IV: "the filename
// shuffling process is performed identically to the original shuffle
// mechanism of the DL framework").
func (m *Manifest) EpochOrder(seed int64, epoch int) []int {
	order := make([]int, m.Len())
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(epochSeed(seed, epoch)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// EpochFileList returns the shuffled filename list for one epoch — the
// artifact the integration shim hands to the PRISMA data plane.
func (m *Manifest) EpochFileList(seed int64, epoch int) []string {
	order := m.EpochOrder(seed, epoch)
	names := make([]string, len(order))
	for i, idx := range order {
		names[i] = m.names.Name(idx)
	}
	return names
}

// epochSeed mixes the dataset seed with the epoch number (splitmix64-style
// finalizer) so epochs produce unrelated permutations.
func epochSeed(seed int64, epoch int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(epoch+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ImageNet scale-1 constants (paper §V: ImageNet ILSVRC-2012).
const (
	ImageNetTrainFiles = 1281167
	ImageNetValFiles   = 50000
	ImageNetTrainBytes = 138 << 30 // ≈ 138 GiB
	ImageNetValBytes   = 6 << 30   // ≈ 6 GiB
)

// SyntheticImageNet builds train and validation manifests that match
// ImageNet's file-count and volume statistics at the given scale in
// (0, 1]. Sizes follow a log-normal distribution (JPEG sizes are heavily
// right-skewed) whose mean matches the real per-file average.
func SyntheticImageNet(scale float64, seed int64) (train, val *Manifest, err error) {
	if scale <= 0 || scale > 1 {
		return nil, nil, fmt.Errorf("dataset: scale %v outside (0, 1]", scale)
	}
	nTrain := int(math.Round(ImageNetTrainFiles * scale))
	nVal := int(math.Round(ImageNetValFiles * scale))
	if nTrain < 1 || nVal < 1 {
		return nil, nil, fmt.Errorf("dataset: scale %v yields an empty split", scale)
	}
	train, err = Synthetic("train", nTrain, ImageNetTrainBytes/ImageNetTrainFiles, 0.5, seed)
	if err != nil {
		return nil, nil, err
	}
	val, err = Synthetic("val", nVal, ImageNetValBytes/ImageNetValFiles, 0.5, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return train, val, nil
}

// Profile describes a dataset family by its file-population statistics —
// the paper motivates PRISMA with training sets "from a few MiB to several
// TiB" (§I cites MNIST/CIFAR at the small end, ImageNet in the middle,
// YouTube-8M and Open Images at the large end). A profile plus a scale
// yields synthetic manifests with matching count/size shape.
type Profile struct {
	Name       string
	TrainFiles int
	ValFiles   int
	TrainBytes int64
	ValBytes   int64
	// Sigma is the log-normal spread of file sizes.
	Sigma float64
}

// Profiles returns the dataset families referenced by the paper, ordered
// by volume.
func Profiles() []Profile {
	return []Profile{
		// 60k 28×28 grayscale digits, ≈45 MiB total: everything fits in
		// any cache; storage optimization is irrelevant (the paper's "few
		// MiB" end).
		{Name: "mnist", TrainFiles: 60_000, ValFiles: 10_000, TrainBytes: 45 << 20, ValBytes: 7 << 20, Sigma: 0.1},
		// 50k 32×32 color images, ≈162 MiB.
		{Name: "cifar10", TrainFiles: 50_000, ValFiles: 10_000, TrainBytes: 162 << 20, ValBytes: 32 << 20, Sigma: 0.15},
		// The paper's evaluation dataset.
		{Name: "imagenet", TrainFiles: ImageNetTrainFiles, ValFiles: ImageNetValFiles, TrainBytes: ImageNetTrainBytes, ValBytes: ImageNetValBytes, Sigma: 0.5},
		// ≈9 M images, ≈ 561 KiB mean (Open Images V4).
		{Name: "openimages", TrainFiles: 9_000_000, ValFiles: 41_620, TrainBytes: 9_000_000 * 561 << 10, ValBytes: 41_620 * 561 << 10, Sigma: 0.6},
		// Frame-level features, ≈1.5 TiB over ≈3.8 M shard-ish files.
		{Name: "youtube8m", TrainFiles: 3_800_000, ValFiles: 100_000, TrainBytes: 15 << 37, ValBytes: 1 << 37, Sigma: 0.4},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// Synthesize builds train and validation manifests for a profile at scale
// in (0, 1].
func (p Profile) Synthesize(scale float64, seed int64) (train, val *Manifest, err error) {
	if scale <= 0 || scale > 1 {
		return nil, nil, fmt.Errorf("dataset: scale %v outside (0, 1]", scale)
	}
	nTrain := int(math.Round(float64(p.TrainFiles) * scale))
	nVal := int(math.Round(float64(p.ValFiles) * scale))
	if nTrain < 1 || nVal < 1 {
		return nil, nil, fmt.Errorf("dataset: scale %v yields an empty %s split", scale, p.Name)
	}
	train, err = Synthetic(p.Name+"/train", nTrain, p.TrainBytes/int64(p.TrainFiles), p.Sigma, seed)
	if err != nil {
		return nil, nil, err
	}
	val, err = Synthetic(p.Name+"/val", nVal, p.ValBytes/int64(p.ValFiles), p.Sigma, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return train, val, nil
}

// Synthetic builds a manifest of n samples named "<prefix>/NNNNNNN.jpg"
// whose sizes are log-normally distributed with the given mean and
// log-space sigma, deterministically from seed.
func Synthetic(prefix string, n int, meanSize int64, sigma float64, seed int64) (*Manifest, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: non-positive sample count %d", n)
	}
	if meanSize <= 0 {
		return nil, fmt.Errorf("dataset: non-positive mean size %d", meanSize)
	}
	// For log-normal, E[X] = exp(mu + sigma^2/2); solve for mu.
	mu := math.Log(float64(meanSize)) - sigma*sigma/2
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		size := int64(math.Exp(mu + sigma*rng.NormFloat64()))
		if size < 1024 {
			size = 1024 // floor: no zero-byte "images"
		}
		samples[i] = Sample{
			Name: fmt.Sprintf("%s/%07d.jpg", prefix, i),
			Size: size,
		}
	}
	return New(samples)
}

// WriteManifest serializes the manifest as "name size" lines.
func WriteManifest(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < m.Len(); i++ {
		if _, err := fmt.Fprintf(w, "%s %d\n", m.names.Name(i), m.sizes[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest parses a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var samples []Sample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var s Sample
		if _, err := fmt.Sscanf(text, "%s %d", &s.Name, &s.Size); err != nil {
			return nil, fmt.Errorf("dataset: %s:%d: malformed line %q: %v", path, line, text, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(samples)
}

// Generate materializes the manifest's files under dir with pseudorandom
// contents of the declared sizes. Intended for small real-mode datasets.
func Generate(dir string, m *Manifest, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 64<<10)
	for i := 0; i < m.Len(); i++ {
		s := m.Sample(i)
		path := filepath.Join(dir, filepath.FromSlash(s.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		remaining := s.Size
		for remaining > 0 {
			chunk := int64(len(buf))
			if remaining < chunk {
				chunk = remaining
			}
			rng.Read(buf[:chunk])
			if _, err := w.Write(buf[:chunk]); err != nil {
				f.Close()
				return err
			}
			remaining -= chunk
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// FromDir scans a directory tree and builds a manifest of every regular
// file, with names relative to dir using forward slashes, sorted for
// determinism.
func FromDir(dir string) (*Manifest, error) {
	var samples []Sample
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		samples = append(samples, Sample{Name: filepath.ToSlash(rel), Size: info.Size()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	return New(samples)
}
