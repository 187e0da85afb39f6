package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Dataset generation and ground truth. The generator is the benchmark's
// own (it shares no code with internal/dataset, so a change there cannot
// move the benchmark's inputs): a splitmix64 stream keyed by the seed, the
// dataset kind and the file index decides every byte, and a seeded
// permutation decides which file gets which size.

// generatorVersion is part of the reuse key: bump it when the bytes a seed
// produces change, so stale directories are regenerated.
const generatorVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is the benchmark's own Fisher-Yates.
func (r *rng) shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// seedFor derives an independent stream for one purpose.
func seedFor(seed int64, parts ...uint64) *rng {
	r := &rng{s: uint64(seed)}
	for _, p := range parts {
		r.s = r.next() ^ p
	}
	r.next()
	return r
}

// datasetKind describes one generated dataset.
type datasetKind struct {
	name      string
	id        uint64  // stream key
	files     int     // full-size file count (-smoke overrides it)
	meanBytes float64 // mean file size
	sigma     float64 // log-normal shape; 0 = every file exactly meanBytes
	valEvery  int     // every valEvery-th file is the unplanned val split; 0 = none
}

var datasetKinds = map[string]datasetKind{
	"small": {name: "small", id: 1, files: 8192, meanBytes: 4 << 10},
	"large": {name: "large", id: 2, files: 2048, meanBytes: 110 << 10, sigma: 0.5},
	"med":   {name: "med", id: 3, files: 4096, meanBytes: 16 << 10, sigma: 0.5, valEvery: 8},
}

const (
	datasetSubdirs  = 16
	fingerprintSize = 16
	minFileBytes    = 1 << 10
)

// entry is one file's ground truth.
type entry struct {
	Name string
	Size int
	CRC  uint32 // CRC32C of the whole payload
	Head [fingerprintSize]byte
	Tail [fingerprintSize]byte
	Val  bool // member of the unplanned split
}

// verifyFull checks size and CRC32C; verifyQuick checks size and the
// 16-byte head/tail fingerprint (the cheap check the timed window uses).
func (e *entry) verifyFull(b []byte) bool {
	return len(b) == e.Size && crc32.Checksum(b, castagnoli) == e.CRC
}

func (e *entry) verifyQuick(b []byte) bool {
	return len(b) == e.Size &&
		[fingerprintSize]byte(b[:fingerprintSize]) == e.Head &&
		[fingerprintSize]byte(b[len(b)-fingerprintSize:]) == e.Tail
}

// groundTruth is a generated dataset: its root directory plus what every
// file must contain.
type groundTruth struct {
	Kind       string
	Dir        string
	Hash       string // over every entry line: same seed, same hash
	Entries    []entry
	TotalBytes int64
	Planned    []int32 // entry indices an epoch plan covers
	Val        []int32 // entry indices read unplanned
}

func (g *groundTruth) index() {
	g.TotalBytes, g.Planned, g.Val = 0, nil, nil
	for i := range g.Entries {
		g.TotalBytes += int64(g.Entries[i].Size)
		if g.Entries[i].Val {
			g.Val = append(g.Val, int32(i))
		} else {
			g.Planned = append(g.Planned, int32(i))
		}
	}
}

// fileSize is the size of the file in the given stratum of files: the
// log-normal quantile at (stratum+0.5)/files. Every seed therefore gets the
// same multiset of sizes — the same total bytes and the same tail, which is
// what read_p99_us on the large dataset follows — and decides only which
// file has which size.
func (k datasetKind) fileSize(stratum, files int) int {
	if k.sigma == 0 {
		return int(k.meanBytes)
	}
	mu := math.Log(k.meanBytes) - k.sigma*k.sigma/2
	z := math.Sqrt2 * math.Erfinv(2*(float64(stratum)+0.5)/float64(files)-1)
	return max(int(math.Exp(mu+k.sigma*z)), minFileBytes)
}

// fill writes a file's payload: the first half pseudorandom, the second
// half one 64-byte pattern repeated, so an LZ codec stores about half a
// byte per byte — compressible, but not trivially so.
func fill(buf []byte, r *rng) {
	half := len(buf) / 2
	i := 0
	for ; i+8 <= half; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.next())
	}
	for ; i < half; i++ {
		buf[i] = byte(r.next())
	}
	var pattern [64]byte
	for j := 0; j < len(pattern); j += 8 {
		binary.LittleEndian.PutUint64(pattern[j:], r.next())
	}
	for i = half; i < len(buf); i += copy(buf[i:], pattern[:]) {
	}
}

func (e *entry) line() string {
	val := 0
	if e.Val {
		val = 1
	}
	return fmt.Sprintf("%s %d %08x %x %x %d\n", e.Name, e.Size, e.CRC, e.Head, e.Tail, val)
}

func manifestHeader(kind string, seed int64, files int, hash string) string {
	return fmt.Sprintf("prisma-bench-manifest gen=%d kind=%s seed=%d files=%d hash=%s\n",
		generatorVersion, kind, seed, files, hash)
}

func hashEntries(entries []entry) string {
	h := sha256.New()
	for i := range entries {
		h.Write([]byte(entries[i].line()))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ensureDataset returns the dataset of the given kind and seed under root,
// generating it unless a directory with a matching manifest is already
// there. The manifest lives beside the dataset directory, not inside it, so
// Open never serves it. A directory left by another seed is replaced, which
// bounds the disk the benchmark holds to one copy per kind.
func ensureDataset(root string, kind datasetKind, files int, seed int64) (*groundTruth, error) {
	dir := filepath.Join(root, kind.name)
	manifest := dir + ".manifest"
	if g, err := loadManifest(manifest, dir, kind.name, files, seed); err == nil {
		return g, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	g := &groundTruth{Kind: kind.name, Dir: dir, Entries: make([]entry, files)}
	for d := 0; d < datasetSubdirs; d++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("d%02d", d)), 0o755); err != nil {
			return nil, err
		}
	}
	strata := make([]int32, files)
	for i := range strata {
		strata[i] = int32(i)
	}
	seedFor(seed, kind.id, 0x73697a65).shuffle(strata)
	var buf []byte
	for i := range g.Entries {
		r := seedFor(seed, kind.id, uint64(i))
		size := kind.fileSize(int(strata[i]), files)
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		b := buf[:size]
		fill(b, r)
		e := &g.Entries[i]
		e.Val = kind.valEvery > 0 && i%kind.valEvery == kind.valEvery-1
		prefix := "f"
		if e.Val {
			prefix = "val"
		}
		e.Name = fmt.Sprintf("d%02d/%s%06d.bin", i%datasetSubdirs, prefix, i)
		e.Size = size
		e.CRC = crc32.Checksum(b, castagnoli)
		copy(e.Head[:], b)
		copy(e.Tail[:], b[size-fingerprintSize:])
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(e.Name)), b, 0o644); err != nil {
			return nil, err
		}
	}
	g.Hash = hashEntries(g.Entries)
	g.index()
	var sb strings.Builder
	sb.WriteString(manifestHeader(kind.name, seed, files, g.Hash))
	for i := range g.Entries {
		sb.WriteString(g.Entries[i].line())
	}
	if err := os.WriteFile(manifest, []byte(sb.String()), 0o644); err != nil {
		return nil, err
	}
	return g, nil
}

// loadManifest reads a side manifest and accepts it only if it was written
// for exactly this (generator, kind, seed, files), its hash matches its
// entries, and every file is present with the recorded size. File contents
// are not re-read: verifying them is the benchmark's job, and a corrupted
// file must be reported by the run, not silently regenerated.
func loadManifest(path, dir, kind string, files int, seed int64) (*groundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty manifest", path)
	}
	g := &groundTruth{Kind: kind, Dir: dir, Entries: make([]entry, 0, files)}
	header := sc.Text()
	for sc.Scan() {
		var (
			e          entry
			head, tail []byte
			val        int
		)
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %x %x %x %d", &e.Name, &e.Size, &e.CRC, &head, &tail, &val); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(head) != fingerprintSize || len(tail) != fingerprintSize {
			return nil, fmt.Errorf("%s: bad fingerprint for %s", path, e.Name)
		}
		copy(e.Head[:], head)
		copy(e.Tail[:], tail)
		e.Val = val == 1
		g.Entries = append(g.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.Hash = hashEntries(g.Entries)
	if header+"\n" != manifestHeader(kind, seed, files, g.Hash) || len(g.Entries) != files {
		return nil, fmt.Errorf("%s: written for another dataset", path)
	}
	for i := range g.Entries {
		info, err := os.Stat(filepath.Join(dir, filepath.FromSlash(g.Entries[i].Name)))
		if err != nil {
			return nil, err
		}
		if info.Size() != int64(g.Entries[i].Size) {
			return nil, fmt.Errorf("%s: size changed", g.Entries[i].Name)
		}
	}
	g.index()
	return g, nil
}
