package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
)

// Load shape, shared by every workload: closed loop, zero think time, two
// clients (the box has two CPUs; more would measure the scheduler), static
// tuning. With the default autotuner sock_large is bimodal run to run; with
// static tuning every metric repeats within a few percent, so the control
// plane is priced as a layer (control.*) instead of polluting every cell.
const (
	numClients       = 2
	staticProducers  = 2
	staticBuffer     = 256
	warmupEpochs     = 2
	setupRepeats     = 5
	unplannedEvery   = 7 // chain workloads: one unplanned val read after this many planned reads
	fullChainFiles   = 4096
	chainTierFit     = 64 << 20
	chainCacheFit    = 64 << 20
	chainTierSpill   = 16 << 20
	chainCacheSpill  = 8 << 20
	chainSampling    = 0.1
	tenancyUnlimited = 1e9
)

var chainTenants = [numClients]string{"job-a", "job-b"}

// workload is one benchmark configuration, built from public options only.
type workload struct {
	name    string
	dataset string
	socket  bool // clients dial ServeUnix; otherwise they call Prisma.ReadSample in-process
	chain   bool // tenancy + shared cache + LZ tier + sampled spans, plus unplanned val reads
	tier    int64
	cache   int64
}

var workloads = []workload{
	{name: "sock_small", dataset: "small", socket: true},
	{name: "sock_large", dataset: "large", socket: true},
	{name: "inproc_small", dataset: "small"},
	{name: "chain_fit", dataset: "med", socket: true, chain: true, tier: chainTierFit, cache: chainCacheFit},
	{name: "chain_spill", dataset: "med", socket: true, chain: true, tier: chainTierSpill, cache: chainCacheSpill},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func staticOptions(dir string) prisma.Options {
	return prisma.Options{
		Dir:              dir,
		DisableAutoTune:  true,
		InitialProducers: staticProducers,
		InitialBuffer:    staticBuffer,
	}
}

// options builds the workload's prisma.Options. files scales the chain
// byte budgets with the dataset so -smoke keeps the same fit/spill shape.
func (w workload) options(dir string, files int) prisma.Options {
	o := staticOptions(dir)
	if w.chain {
		scale := func(b int64) int64 { return b * int64(files) / fullChainFiles }
		o.Tenancy = prisma.TenancyOptions{
			Enable:           true,
			Capacity:         tenancyUnlimited,
			MaxQueueDepth:    -1,
			SharedCacheBytes: scale(w.cache),
			Tenants:          []prisma.TenantSpec{{Name: chainTenants[0]}, {Name: chainTenants[1]}},
		}
		o.Tiering = prisma.TieringOptions{
			Enable:            true,
			Compress:          true,
			PrefetchNextEpoch: true,
			CapacityBytes:     scale(w.tier),
		}
		o.TraceSampling = chainSampling
	}
	return o
}

// sampleReader is the read call both *prisma.Prisma and *prisma.Client offer.
type sampleReader interface {
	ReadSample(name string) (*prisma.Sample, error)
}

// instance is one opened data plane with its clients.
type instance struct {
	p       *prisma.Prisma
	clients []*prisma.Client
	readers [numClients]sampleReader
	submit  func(names []string) (prisma.EpochID, int, error)
	openDur time.Duration
}

func (in *instance) Close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.p.Close()
}

// nextSocket returns a socket path no earlier instance or other process has
// used, so a listener never finds its path taken.
func nextSocket(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, "*.sock")
	if err != nil {
		return "", err
	}
	path := f.Name()
	f.Close()
	if err := os.Remove(path); err != nil {
		return "", err
	}
	// A UNIX socket path is limited to about 108 bytes; the relative form
	// is usually much shorter than the checkout's absolute path.
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && len(rel) < len(path) {
			path = rel
		}
	}
	return path, nil
}

// openInstance opens opts and, for socket instances, serves it and dials
// the clients (tenants[i] names client i's tenant; empty = untagged).
func openInstance(opts prisma.Options, socket bool, sockDir string, clients int, tenants []string, ln *lane) (*instance, error) {
	t0 := time.Now()
	p, err := prisma.Open(opts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ln.add(spanOpen, 0, 0, t0, t1)
	in := &instance{p: p, submit: p.SubmitEpoch, openDur: t1.Sub(t0)}
	if !socket {
		for i := range in.readers {
			in.readers[i] = p
		}
		return in, nil
	}
	sock, err := nextSocket(sockDir)
	if err != nil {
		in.Close()
		return nil, err
	}
	if err := p.ServeUnix(sock); err != nil {
		in.Close()
		return nil, err
	}
	t2 := time.Now()
	ln.add(spanServeUnix, 0, 0, t1, t2)
	for i := 0; i < clients; i++ {
		td := time.Now()
		var do prisma.DialOptions
		if i < len(tenants) {
			do.Tenant = tenants[i]
		}
		c, err := prisma.DialWithOptions(sock, do)
		if err != nil {
			in.Close()
			return nil, err
		}
		c.EnablePooledReads(prisma.BufferPoolOptions{})
		ln.add(spanDial, 0, 0, td, time.Now())
		in.clients = append(in.clients, c)
		in.readers[i] = c
	}
	// One client submits the plan, as one data-loader process would.
	in.submit = in.clients[0].SubmitEpoch
	return in, nil
}

// verifier is how much of each payload a window checks: verifyFull (CRC32C;
// warm-up and traced windows) or verifyQuick (size + head/tail fingerprint;
// the timed window).
type verifier func(e *entry, payload []byte) bool

var (
	verifyFull  verifier = (*entry).verifyFull
	verifyQuick verifier = (*entry).verifyQuick
)

// nanos stores a latency in 32 bits; a read stalled beyond 4.29 s saturates.
func nanos(d time.Duration) uint32 {
	return uint32(min(d, time.Duration(math.MaxUint32)))
}

// epochStat is what one epoch measured. An epoch runs from the SubmitEpoch
// call to the last delivered sample.
type epochStat struct {
	wall        time.Duration
	submit      time.Duration
	firstSample time.Duration
	planned     int64 // plan entries read
	attempted   int64 // reads issued
	failed      int64 // reads that errored or did not match ground truth
	bytes       int64
	latencies   [numClients][]uint32 // ns per delivered read, per client
}

type clientStat struct {
	attempted, failed, bytes int64
	first, last              time.Time
	latencies                []uint32
}

// runner drives epochs of one workload against one instance.
type runner struct {
	w    workload
	g    *groundTruth
	in   *instance
	seed int64
	// epoch numbers the plans: each epoch of a process shuffles differently.
	epoch uint32
}

// plan returns the epoch's shuffled planned order and, for chain
// workloads, the shuffled val order.
func (r *runner) plan() (planned, val []int32, names []string) {
	rg := seedFor(r.seed, 0x706c616e, uint64(r.epoch))
	planned = append([]int32(nil), r.g.Planned...)
	rg.shuffle(planned)
	if r.w.chain {
		val = append([]int32(nil), r.g.Val...)
		rg.shuffle(val)
	}
	names = make([]string, len(planned))
	for i, idx := range planned {
		names[i] = r.g.Entries[idx].Name
	}
	return planned, val, names
}

// runEpoch submits one plan and has the clients stride it: client i reads
// entries i, i+numClients, ... A nil trace runs untraced.
func (r *runner) runEpoch(verify verifier, tr *trace) (epochStat, error) {
	r.epoch++
	planned, val, names := r.plan()
	mainLane := tr.lane(0)
	t0 := time.Now()
	epochSpan := mainLane.begin(spanEpoch, 0, r.epoch, t0)
	if _, enq, err := r.in.submit(names); err != nil || enq != len(names) {
		return epochStat{}, fmt.Errorf("SubmitEpoch enqueued %d of %d: %v", enq, len(names), err)
	}
	t1 := time.Now()
	mainLane.add(spanSubmitEpoch, epochSpan, r.epoch, t0, t1)

	var (
		wg    sync.WaitGroup
		stats [numClients]clientStat
	)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = r.client(c, planned, val, verify, tr.lane(1+c), epochSpan)
		}(c)
	}
	wg.Wait()

	es := epochStat{submit: t1.Sub(t0), planned: int64(len(planned))}
	var first, last time.Time
	for c := range stats {
		s := &stats[c]
		es.attempted += s.attempted
		es.failed += s.failed
		es.bytes += s.bytes
		es.latencies[c] = s.latencies
		if first.IsZero() || (!s.first.IsZero() && s.first.Before(first)) {
			first = s.first
		}
		if s.last.After(last) {
			last = s.last
		}
	}
	if last.IsZero() {
		last = time.Now()
	}
	mainLane.finish(epochSpan, last)
	es.wall = last.Sub(t0)
	if !first.IsZero() {
		es.firstSample = first.Sub(t0)
	}
	return es, nil
}

// client is one closed-loop consumer's share of an epoch.
func (r *runner) client(c int, planned, val []int32, verify verifier, ln *lane, parent uint32) clientStat {
	reader := r.in.readers[c]
	var cs clientStat
	n := (len(planned) - c + numClients - 1) / numClients
	cs.latencies = make([]uint32, 0, n+n/unplannedEvery+1)
	start := time.Now()
	me := ln.begin(spanClient, parent, r.epoch, start)

	read := func(idx int32) {
		e := &r.g.Entries[idx]
		cs.attempted++
		t0 := time.Now()
		s, err := reader.ReadSample(e.Name)
		t1 := time.Now()
		if err != nil {
			cs.failed++
			return
		}
		b := s.Bytes()
		ok := verify(e, b)
		if ln != nil {
			t2 := time.Now()
			s.Release()
			t3 := time.Now()
			ln.add(spanRead, me, r.epoch, t0, t1)
			ln.add(spanVerify, me, r.epoch, t1, t2)
			ln.add(spanRelease, me, r.epoch, t2, t3)
		} else {
			s.Release()
		}
		if !ok {
			cs.failed++
			return
		}
		if cs.first.IsZero() {
			cs.first = t1
		}
		cs.last = t1
		cs.bytes += int64(len(b))
		cs.latencies = append(cs.latencies, nanos(t1.Sub(t0)))
	}

	vi := c
	sinceUnplanned := 0
	for i := c; i < len(planned); i += numClients {
		read(planned[i])
		if sinceUnplanned++; sinceUnplanned == unplannedEvery && vi < len(val) {
			// Unplanned: a synchronous bypass down the whole chain, so the
			// same layers are also used without the prefetcher.
			sinceUnplanned = 0
			read(val[vi])
			vi += numClients
		}
	}
	ln.finish(me, time.Now())
	return cs
}

// setupResult is one timed set-up: Open + ServeUnix + dials + warm-up epochs.
type setupResult struct {
	in       *instance
	r        *runner
	dur      time.Duration
	failed   int64
	attempts int64
}

// setup opens the workload and runs the warm-up epochs, every payload
// CRC-verified. Dataset generation is not part of it.
func setup(w workload, opts prisma.Options, g *groundTruth, seed int64, sockDir string, tr *trace) (setupResult, error) {
	t0 := time.Now()
	var tenants []string
	if w.chain {
		tenants = chainTenants[:]
	}
	in, err := openInstance(opts, w.socket, sockDir, numClients, tenants, tr.lane(0))
	if err != nil {
		return setupResult{}, err
	}
	res := setupResult{in: in, r: &runner{w: w, g: g, in: in, seed: seed}}
	for e := 0; e < warmupEpochs; e++ {
		es, err := res.r.runEpoch(verifyFull, nil)
		if err != nil {
			in.Close()
			return setupResult{}, err
		}
		res.failed += es.failed
		res.attempts += es.attempted
	}
	res.dur = time.Since(t0)
	return res, nil
}

// releaseMemory collects a closed instance's garbage and returns it to the
// OS, so the next instance starts from the same heap as the one before.
func releaseMemory() { debug.FreeOSMemory() }

// window is the outcome of one measured window of whole epochs.
type window struct {
	epochs        []epochStat
	before, after snapshot
	samples       int64 // delivered and verified reads
	attempted     int64
	failed        int64
	planned       int64
	bytes         int64
}

// runWindow runs whole epochs until d has elapsed (at least one).
func (r *runner) runWindow(d time.Duration, verify verifier, tr *trace) (*window, error) {
	w := &window{before: takeSnapshot(r.in.p)}
	start := time.Now()
	for {
		es, err := r.runEpoch(verify, tr)
		if err != nil {
			return nil, err
		}
		w.epochs = append(w.epochs, es)
		w.attempted += es.attempted
		w.failed += es.failed
		w.planned += es.planned
		w.bytes += es.bytes
		if time.Since(start) >= d {
			break
		}
	}
	if !r.w.chain {
		awaitPoolDrained(r.in.p)
	}
	w.after = takeSnapshot(r.in.p)
	w.samples = w.attempted - w.failed
	for _, msg := range checkWindow(w.before, w.after, w.planned, r.w.chain) {
		fmt.Fprintf(os.Stderr, "bench: %s: invariant violated: %s\n", r.w.name, msg)
		w.failed++
	}
	return w, nil
}

// awaitPoolDrained gives the last response's lease a moment to come home:
// the server releases a payload buffer after writing it to the socket,
// which can be just after the client has returned from its read. A lease
// still out after the wait is a leak, and checkWindow reports it.
func awaitPoolDrained(p *prisma.Prisma) {
	for deadline := time.Now().Add(100 * time.Millisecond); p.Stats().PoolOutstanding != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// windowSummary is the per-epoch-median view of a window: a single stalled
// epoch cannot move a rate or a latency.
type windowSummary struct {
	samplesPerS, mbPerS float64
	p50us, p99us        float64
	epochCV             float64
	firstSampleMs       float64
	submitUsPerEntry    float64
	cpuUsPerSample      float64
}

func (w *window) summarize() windowSummary {
	var rates, mbs, p50s, p99s, walls, firsts []float64
	var submit time.Duration
	for i := range w.epochs {
		es := &w.epochs[i]
		var lat []uint32
		for c := range es.latencies {
			lat = append(lat, es.latencies[c]...)
		}
		sorted := sortedMicros(lat)
		secs := es.wall.Seconds()
		rates = append(rates, ratio(float64(len(lat)), secs))
		mbs = append(mbs, ratio(float64(es.bytes)/1e6, secs))
		p50s = append(p50s, percentile(sorted, 0.50))
		p99s = append(p99s, percentile(sorted, 0.99))
		walls = append(walls, secs)
		firsts = append(firsts, float64(es.firstSample)/1e6)
		submit += es.submit
	}
	return windowSummary{
		samplesPerS:      median(rates),
		mbPerS:           median(mbs),
		p50us:            median(p50s),
		p99us:            median(p99s),
		epochCV:          coefficientOfVariation(walls),
		firstSampleMs:    median(firsts),
		submitUsPerEntry: ratio(us(submit), float64(w.planned)),
		cpuUsPerSample:   ratio(us(w.after.cpu()-w.before.cpu()), float64(w.samples)),
	}
}

// pooledP999us is the p99.9 over every read of the window. No single epoch
// has enough reads for it.
func (w *window) pooledP999us() float64 {
	var pooled []uint32
	for i := range w.epochs {
		for _, lat := range w.epochs[i].latencies {
			pooled = append(pooled, lat...)
		}
	}
	return percentile(sortedMicros(pooled), 0.999)
}
