package prisma

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/experiments"
)

// TestTieringServingPath runs the full serving chain with the fast tier
// enabled: epoch 1 promotes every sample, epoch 2 is served from the
// tier, and the public Stats surface reports the tier's state.
func TestTieringServingPath(t *testing.T) {
	dir := makeDataset(t, 24)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{
			Enable:        true,
			CapacityBytes: 1 << 20,
			Compress:      true,
		}
	})
	plan := p.ShuffledFileList(7, 0)
	for epoch := 0; epoch < 2; epoch++ {
		if err := p.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			data, err := p.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < 2048 {
				t.Fatalf("short read %d for %s", len(data), name)
			}
		}
	}

	st := p.Stats()
	if !st.TierEnabled {
		t.Fatal("TierEnabled false with Options.Tiering.Enable set")
	}
	if st.TierPromotions != int64(len(plan)) {
		t.Fatalf("TierPromotions = %d, want %d (every epoch-1 sample promoted)", st.TierPromotions, len(plan))
	}
	if st.TierFastHits != int64(len(plan)) {
		t.Fatalf("TierFastHits = %d, want %d (epoch 2 served from the tier)", st.TierFastHits, len(plan))
	}
	if st.TierResidents != len(plan) {
		t.Fatalf("TierResidents = %d, want %d", st.TierResidents, len(plan))
	}
	if st.TierCapacityBytes != 1<<20 {
		t.Fatalf("TierCapacityBytes = %d, want %d", st.TierCapacityBytes, 1<<20)
	}
	if st.TierUsedBytes <= 0 || st.TierUsedBytes > st.TierCapacityBytes {
		t.Fatalf("TierUsedBytes = %d out of range (capacity %d)", st.TierUsedBytes, st.TierCapacityBytes)
	}
	// The files are random, so every resident stays raw and is charged the
	// pooled buffer it pins (the 4 KiB class), not its length.
	if st.TierUsedBytes != int64(4096*len(plan)) || st.TierLogicalBytes >= st.TierUsedBytes {
		t.Fatalf("physical %d, logical %d; want each raw resident charged its 4 KiB buffer", st.TierUsedBytes, st.TierLogicalBytes)
	}
}

// TestTieringDisabledStats pins the default: without Options.Tiering the
// tier fields stay zero-valued and the admin endpoint refuses.
func TestTieringDisabledStats(t *testing.T) {
	dir := makeDataset(t, 2)
	p := open(t, dir, nil)
	if st := p.Stats(); st.TierEnabled || st.TierCapacityBytes != 0 {
		t.Fatalf("tiering stats populated on a tiering-free instance: %+v", st)
	}
	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/tiering")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/tiering on a tiering-free instance: %d, want 501", resp.StatusCode)
	}
}

// TestHierarchyOptionsAlone: the tier and the shared cache are one layer,
// yet each option alone reports only itself. The shared cache alone is not a
// fast tier — TierEnabled false, Tier* zero-valued, /tiering 501,
// prisma_tiering_enabled 0 — and the tier alone is not a shared cache.
func TestHierarchyOptionsAlone(t *testing.T) {
	for _, c := range []struct {
		name        string
		mutate      func(*Options)
		tier, cache bool
	}{
		{"shared-cache", func(o *Options) { o.Tenancy = TenancyOptions{Enable: true, SharedCacheBytes: 1 << 20} }, false, true},
		{"tiering", func(o *Options) { o.Tiering = TieringOptions{Enable: true, CapacityBytes: 1 << 20} }, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := open(t, makeDataset(t, 2), c.mutate)
			name := p.ShuffledFileList(1, 0)[0]
			for i := 0; i < 2; i++ {
				if _, err := p.Read(name); err != nil {
					t.Fatal(err)
				}
			}
			st := p.Stats()
			if st.TierEnabled != c.tier || st.CacheEnabled != c.cache {
				t.Fatalf("TierEnabled %v, CacheEnabled %v; want %v, %v", st.TierEnabled, st.CacheEnabled, c.tier, c.cache)
			}
			if tierSet := st.TierCapacityBytes != 0 || st.TierSlowReads != 0; tierSet != c.tier {
				t.Fatalf("tier fields populated %v, want %v: %+v", tierSet, c.tier, st)
			}
			if cacheSet := st.CacheDeviceReads != 0 || st.CacheResidents != 0; cacheSet != c.cache {
				t.Fatalf("cache fields populated %v, want %v: %+v", cacheSet, c.cache, st)
			}
			srv := httptest.NewServer(p.AdminHandler())
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/tiering")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := map[bool]int{true: http.StatusOK, false: http.StatusNotImplemented}[c.tier]; resp.StatusCode != want {
				t.Fatalf("/tiering: %d, want %d", resp.StatusCode, want)
			}
			resp, err = http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := map[bool]string{true: "prisma_tiering_enabled 1\n", false: "prisma_tiering_enabled 0\n"}[c.tier]
			if !strings.Contains(string(body), want) {
				t.Fatalf("/metrics lacks %q", want)
			}
		})
	}
}

// TestTieringAdminSurface exercises /tiering and the prisma_tiering_*
// metric families over the admin HTTP handler.
func TestTieringAdminSurface(t *testing.T) {
	dir := makeDataset(t, 8)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 1 << 20}
	})
	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()

	plan := p.ShuffledFileList(2, 0)
	for epoch := 0; epoch < 2; epoch++ {
		if err := p.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			if _, err := p.Read(name); err != nil {
				t.Fatal(err)
			}
		}
	}

	resp, err := http.Get(srv.URL + "/tiering")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tiering: %d, want 200", resp.StatusCode)
	}
	for _, field := range []string{"FastHits", "Promotions", "Capacity"} {
		if !strings.Contains(string(body), field) {
			t.Fatalf("/tiering JSON missing %s:\n%s", field, body)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"prisma_tiering_enabled 1",
		"prisma_tiering_fast_hits_total",
		"prisma_tiering_promotions_total",
		"prisma_tiering_capacity_bytes",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Fatalf("metrics missing %q:\n%s", family, metrics)
		}
	}
}

// TestTieringFullTierDeclines runs shuffled epochs over a tier that holds
// about a quarter of the dataset, through Open: the tier fills, stops
// swapping, keeps hitting, and says so on every surface — a full tier whose
// promotions have stopped shows Declined rising, which is what tells it
// from a broken one.
func TestTieringFullTierDeclines(t *testing.T) {
	const files = 32
	dir := makeDataset(t, files)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 8 * 4096} // eight raw residents, each pinning a 4 KiB buffer
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	planner, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer planner.Close()

	var filled Stats
	for epoch := 0; epoch < 4; epoch++ {
		plan := p.ShuffledFileList(11, epoch)
		before := p.Stats() // before the plan: producers start reading the moment it lands
		if err := p.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			if _, err := p.Read(name); err != nil {
				t.Fatal(err)
			}
		}
		st := p.Stats()
		if epoch == 0 {
			filled = st
			if st.TierResidents < 7 || st.TierResidents >= files || st.TierDeclined == 0 {
				t.Fatalf("epoch 1 should fill the undersized tier and start declining: %+v", st)
			}
			continue
		}
		if st.TierPromotions != filled.TierPromotions || st.TierEvictions != 0 {
			t.Fatalf("epoch %d swapped residents under a uniform shuffle: promotions %d -> %d, evictions %d",
				epoch+1, filled.TierPromotions, st.TierPromotions, st.TierEvictions)
		}
		if got, want := st.TierFastHits-before.TierFastHits, int64(filled.TierResidents); got != want {
			t.Fatalf("epoch %d: %d tier hits, want one per resident (%d)", epoch+1, got, want)
		}
		if got, want := st.TierDeclined-before.TierDeclined, int64(files-filled.TierResidents); got != want {
			t.Fatalf("epoch %d: %d declined, want one per miss (%d)", epoch+1, got, want)
		}
	}

	want := p.Stats().TierDeclined
	remote, err := planner.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.TierDeclined != want {
		t.Fatalf("remote TierDeclined = %d, want %d", remote.TierDeclined, want)
	}
	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()
	for path, line := range map[string]string{
		"/metrics": fmt.Sprintf("prisma_tiering_declined_total %d\n", want),
		"/tiering": fmt.Sprintf("\"Declined\":%d,", want),
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), line) {
			t.Fatalf("%s missing %q:\n%s", path, line, body)
		}
	}
}

// TestTieringRemoteStats round-trips the tier fields over the UNIX-socket
// control plane: a remote planner's Stats() must see the same tier
// telemetry prisma-ctl renders.
func TestTieringRemoteStats(t *testing.T) {
	dir := makeDataset(t, 12)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 1 << 20, Compress: true}
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	planner, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer planner.Close()

	plan := p.ShuffledFileList(9, 0)
	for epoch := 0; epoch < 2; epoch++ {
		if err := planner.SubmitPlan(plan); err != nil {
			t.Fatal(err)
		}
		for _, name := range plan {
			if _, err := planner.Read(name); err != nil {
				t.Fatal(err)
			}
		}
	}

	st, err := planner.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.TierEnabled {
		t.Fatal("remote stats lost TierEnabled")
	}
	if st.TierFastHits != int64(len(plan)) {
		t.Fatalf("remote TierFastHits = %d, want %d", st.TierFastHits, len(plan))
	}
	if st.TierResidents != len(plan) {
		t.Fatalf("remote TierResidents = %d, want %d", st.TierResidents, len(plan))
	}
}

// TestTieringRemoteEpochPrefetch pins the IPC warming path: epochs
// submitted over the socket go straight to the stage, so the warmer must
// be hooked at the stage (not in Prisma.SubmitEpoch) for remote data
// loaders to warm the tier.
func TestTieringRemoteEpochPrefetch(t *testing.T) {
	dir := makeDataset(t, 10)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{
			Enable:            true,
			CapacityBytes:     1 << 20,
			PrefetchNextEpoch: true,
		}
	})
	sock := filepath.Join(t.TempDir(), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	plan := p.ShuffledFileList(4, 0)
	if _, _, err := c.SubmitEpoch(plan); err != nil {
		t.Fatal(err)
	}
	for _, name := range plan {
		if _, err := c.Read(name); err != nil {
			t.Fatal(err)
		}
	}
	// The warmer must have seen the remote plan: every entry ends up
	// either warmed in or skipped (already promoted by the racing demand
	// reads). Before the stage-level hook, both counters stayed zero.
	awaitWarmed(t, p, len(plan))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TierResidents != len(plan) {
		t.Fatalf("TierResidents = %d, want %d after a remote-submitted epoch", st.TierResidents, len(plan))
	}
	if got := st.TierPromotions + st.TierPrefetchPromotions; got != int64(len(plan)) {
		t.Fatalf("promotions %d + prefetch promotions %d = %d, want %d (each sample charged exactly once)",
			st.TierPromotions, st.TierPrefetchPromotions, got, len(plan))
	}
}

// awaitWarmed waits until the background warmer has warmed in or skipped
// each of n plan entries. Until then a warm whose flight a demand read
// joined may still be preparing its resident, so residents and promotions
// are not final.
func awaitWarmed(t *testing.T, p *Prisma, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := p.Stats()
		if st.TierPrefetchPromotions+st.TierPrefetchSkips >= int64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("warmer never drained the plan: %d warmed + %d skipped, want %d",
				st.TierPrefetchPromotions, st.TierPrefetchSkips, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTieringEpochPrefetch wires PrefetchNextEpoch through SubmitEpoch:
// submitting a plan warms its cold samples into the tier in the
// background, so training the epoch finds them resident.
func TestTieringEpochPrefetch(t *testing.T) {
	dir := makeDataset(t, 16)
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{
			Enable:            true,
			CapacityBytes:     1 << 20,
			PrefetchNextEpoch: true,
		}
	})
	plan := p.ShuffledFileList(3, 0)
	id, n, err := p.SubmitEpoch(plan)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plan) {
		t.Fatalf("SubmitEpoch accepted %d of %d", n, len(plan))
	}
	_ = id
	for _, name := range plan {
		if _, err := p.Read(name); err != nil {
			t.Fatal(err)
		}
	}
	// The warmer races the epoch's own reads; every sample must end up
	// resident and each was charged exactly once (prefetch-promoted or
	// read-promoted, never both).
	awaitWarmed(t, p, len(plan))
	st := p.Stats()
	if st.TierResidents != len(plan) {
		t.Fatalf("TierResidents = %d, want %d after a prefetched epoch", st.TierResidents, len(plan))
	}
	if got := st.TierPromotions + st.TierPrefetchPromotions; got != int64(len(plan)) {
		t.Fatalf("promotions %d + prefetch promotions %d = %d, want %d",
			st.TierPromotions, st.TierPrefetchPromotions, got, len(plan))
	}
}

// TestTierAndCacheHoldEachSampleOnce drives the whole chain through the
// public surface only — Open over a real directory with the shared cache and
// the compressing tier both on, ServeUnix, two tenant clients striding two
// epochs, plus one unplanned sample both tenants read — and checks the one
// hierarchy from Stats: its budget is the two options' sum, every sample
// ends resident once (the Cache* and Tier* views agree), epoch 2 costs no
// device read, and — the plan fitting the budget raw, so no resident is
// encoded — the pool's leases are exactly the residents': every sample
// parked in the prefetch buffer or lent to a client is a resident's own
// buffer.
func TestTierAndCacheHoldEachSampleOnce(t *testing.T) {
	const files, buffer = 96, 16
	dir := t.TempDir()
	contents := map[string][]byte{}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("s%03d.bin", i)
		contents[name] = experiments.CompressibleSample(i, 6000+i, 0.5)
		if err := os.WriteFile(filepath.Join(dir, name), contents[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers, o.InitialBuffer = 2, buffer
		o.Tenancy = TenancyOptions{
			Enable:           true,
			Capacity:         1e9,
			MaxQueueDepth:    -1,
			SharedCacheBytes: 4 << 20,
			Tenants:          []TenantSpec{{Name: "job-a"}, {Name: "job-b"}},
		}
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 4 << 20, Compress: true, PrefetchNextEpoch: true}
	})
	sock := filepath.Join(shortTempDir(t), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	tenants := []string{"job-a", "job-b"}
	clients := make([]*Client, len(tenants))
	for i, tenant := range tenants {
		c, err := DialWithOptions(sock, DialOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnablePooledReads(BufferPoolOptions{})
		clients[i] = c
	}
	all := p.ShuffledFileList(9, 0)
	plan, unplanned := all[1:], all[0]
	// settled waits until the hierarchy holds every sample. The warmer
	// promotes in the background: a warm whose flight a planned read joined
	// can still be preparing its resident after the epoch's last read has
	// returned, and until it lands a read of that name joins the kept flight
	// instead of hitting.
	settled := func() Stats {
		deadline := time.Now().Add(2 * time.Second)
		for {
			st := p.Stats()
			if st.TierResidents == files || time.Now().After(deadline) {
				return st
			}
			time.Sleep(time.Millisecond)
		}
	}
	var first Stats
	for epoch := 0; epoch < 2; epoch++ {
		if _, n, err := clients[0].SubmitEpoch(plan); err != nil || n != len(plan) {
			t.Fatalf("epoch %d: SubmitEpoch enqueued %d of %d: %v", epoch, n, len(plan), err)
		}
		var wg sync.WaitGroup
		for w, c := range clients {
			wg.Add(1)
			go func(w int, c *Client) {
				defer wg.Done()
				read := func(name string) {
					s, err := c.ReadSample(name)
					if err != nil {
						t.Errorf("%s: %s: %v", tenants[w], name, err)
						return
					}
					if !bytes.Equal(s.Bytes(), contents[name]) {
						t.Errorf("%s: %s: delivered bytes differ from the file", tenants[w], name)
					}
					s.Release()
				}
				read(unplanned) // both tenants, at the same moment: the shared read
				for i := w; i < len(plan); i += len(clients) {
					read(plan[i])
				}
			}(w, c)
		}
		wg.Wait()
		if epoch == 0 {
			first = settled()
		}
	}
	st := settled()
	if st.Errors != 0 || st.PlanDelivered != int64(2*len(plan)) {
		t.Fatalf("stats = %+v", st)
	}
	if st.TierCapacityBytes != 8<<20 || !st.CacheEnabled || !st.TierEnabled {
		t.Fatalf("TierCapacityBytes = %d, enabled %v/%v; want one 8 MiB hierarchy", st.TierCapacityBytes, st.CacheEnabled, st.TierEnabled)
	}
	if st.TierResidents != files || st.CacheResidents != files || st.CacheUsedBytes != st.TierUsedBytes {
		t.Fatalf("TierResidents = %d, CacheResidents = %d (%d vs %d bytes); want every one of the %d samples resident once, both views agreeing",
			st.TierResidents, st.CacheResidents, st.CacheUsedBytes, st.TierUsedBytes, files)
	}
	if st.CacheDeviceReads != first.CacheDeviceReads || st.TierFastHits-first.TierFastHits != files+1 {
		t.Fatalf("epoch 2 cost %d device reads and %d tier hits, want 0 and %d (the tier serves what it kept)",
			st.CacheDeviceReads-first.CacheDeviceReads, st.TierFastHits-first.TierFastHits, files+1)
	}
	if st.TierEncoded != 0 || st.PoolOutstanding != int64(st.TierResidents) {
		t.Fatalf("%d residents encoded, PoolOutstanding = %d; want none encoded and one lease per resident (%d): some layer pins a second lease per sample",
			st.TierEncoded, st.PoolOutstanding, st.TierResidents)
	}
}

// TestSocketPlanThatFitsDecodesNothing drives the plan-sized rule through
// the public surface only: Open over compressible files with the
// compressing tier, ServeUnix, and a client that submits each epoch's plan
// over the socket. The plan fits the budget raw, so every resident is raw:
// epoch 2 is served byte-identical from the tier with no decode at all.
func TestSocketPlanThatFitsDecodesNothing(t *testing.T) {
	const files = 48
	dir := t.TempDir()
	contents := map[string][]byte{}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("s%03d.bin", i)
		contents[name] = experiments.CompressibleSample(i, 6000+i, 0.5)
		if err := os.WriteFile(filepath.Join(dir, name), contents[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := open(t, dir, func(o *Options) {
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 1 << 20, Compress: true}
	})
	sock := filepath.Join(shortTempDir(t), "prisma.sock")
	if err := p.ServeUnix(sock); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := p.ShuffledFileList(5, 0)
	var first Stats
	for epoch := 0; epoch < 2; epoch++ {
		if epoch == 1 {
			first = p.Stats()
		}
		if _, n, err := c.SubmitEpoch(plan); err != nil || n != len(plan) {
			t.Fatalf("epoch %d: SubmitEpoch enqueued %d of %d: %v", epoch, n, len(plan), err)
		}
		for _, name := range plan {
			data, err := c.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, contents[name]) {
				t.Fatalf("epoch %d: %s: delivered bytes differ from the file", epoch, name)
			}
		}
	}
	st := p.Stats()
	if st.TierResidents != files || st.TierEncoded != 0 {
		t.Fatalf("%d residents, %d encoded; want all %d resident raw", st.TierResidents, st.TierEncoded, files)
	}
	if hits := st.TierFastHits - first.TierFastHits; hits != files || st.TierDecodeTime != first.TierDecodeTime {
		t.Fatalf("epoch 2: %d tier hits, decode time %v -> %v; want %d hits and nothing decoded",
			hits, first.TierDecodeTime, st.TierDecodeTime, files)
	}
}

// TestSmallPlanKeepsOverBudgetEpochEncoded: the hierarchy sizes every plan
// still being read, not the latest alone. A plan over the budget is
// submitted, then a small one that alone would fit raw; the first epoch's
// reads that follow are still admitted encoded, because its plan is still
// live.
func TestSmallPlanKeepsOverBudgetEpochEncoded(t *testing.T) {
	const files = 48 // each charged an 8 KiB pool class raw: 384 KiB
	dir := t.TempDir()
	contents := map[string][]byte{}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("s%03d.bin", i)
		contents[name] = experiments.CompressibleSample(i, 6000+i, 0.5)
		if err := os.WriteFile(filepath.Join(dir, name), contents[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := open(t, dir, func(o *Options) {
		o.DisableAutoTune = true
		o.InitialProducers, o.InitialBuffer = 1, 2
		o.Tiering = TieringOptions{Enable: true, CapacityBytes: 128 << 10, Compress: true}
	})
	big := p.ShuffledFileList(3, 0)
	small := big[:4] // 32 KiB raw: fits alone
	for _, plan := range [][]string{big, small} {
		if _, n, err := p.SubmitEpoch(plan); err != nil || n != len(plan) {
			t.Fatalf("SubmitEpoch enqueued %d of %d: %v", n, len(plan), err)
		}
	}
	for _, name := range append(big, small...) {
		data, err := p.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, contents[name]) {
			t.Fatalf("%s: delivered bytes differ from the file", name)
		}
	}
	if st := p.Stats(); st.TierResidents <= len(small) || st.TierEncoded != st.TierResidents {
		t.Fatalf("%d residents, %d encoded; want more than %d, every one encoded", st.TierResidents, st.TierEncoded, len(small))
	}
}
