package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hopscotch"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
)

// memEnv is an in-memory index.Env for unit-testing the index in
// isolation: pages live in a map, reads cost a fixed simulated latency,
// and invalidated pages are tracked so tests can assert GC hygiene.
type memEnv struct {
	clock       sim.Clock
	pages       map[nand.PPA][]byte
	next        nand.PPA
	reads       int64
	appends     int64
	invalidated map[nand.PPA]bool
	readCost    sim.Duration
	failAppends bool
}

func newMemEnv() *memEnv {
	return &memEnv{
		pages:       make(map[nand.PPA][]byte),
		invalidated: make(map[nand.PPA]bool),
		readCost:    60 * sim.Microsecond,
	}
}

func (e *memEnv) ReadPage(p nand.PPA) ([]byte, error) {
	data, ok := e.pages[p]
	if !ok {
		return nil, fmt.Errorf("memEnv: page %d not present", p)
	}
	e.reads++
	e.clock.Advance(e.readCost)
	return data, nil
}

func (e *memEnv) AppendPage(data []byte) (nand.PPA, error) {
	if e.failAppends {
		return 0, errors.New("memEnv: append failure injected")
	}
	p := e.next
	e.next++
	e.pages[p] = append([]byte(nil), data...)
	e.appends++
	e.clock.Advance(700 * sim.Microsecond)
	return p, nil
}

func (e *memEnv) Invalidate(p nand.PPA) {
	e.invalidated[p] = true
	delete(e.pages, p)
}

func (e *memEnv) ChargeCPU(d sim.Duration) { e.clock.Advance(d) }
func (e *memEnv) MetaReads() int64         { return e.reads }
func (e *memEnv) Now() sim.Time            { return e.clock.Now() }

func sig64(lo uint64) index.Sig { return index.Sig{Lo: lo} }

func newTestRHIK(t *testing.T, cfg Config) (*RHIK, *memEnv) {
	t.Helper()
	env := newMemEnv()
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	r, err := New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	return r, env
}

func TestEq1RecordsPerTable(t *testing.T) {
	// Paper parameters: 32 KiB pages, 8 B signature, 5 B PPA, 4 B hopinfo.
	if got := RecordsPerTable(32*1024, false); got != 1927 {
		t.Fatalf("R = %d, want 1927 (Eq. 1)", got)
	}
	if got := RecordsPerTable(32*1024, true); got != 1310 {
		t.Fatalf("wide R = %d, want 1310", got)
	}
}

func TestEq2DirectoryEntries(t *testing.T) {
	cases := []struct {
		keys int64
		r    int
		want int
	}{
		{0, 1927, 1},
		{1, 1927, 1},
		{1927, 1927, 1},
		{1928, 1927, 2},
		{1000000, 1927, 1024}, // ceil(1e6/1927)=519 → next pow2 1024
	}
	for _, c := range cases {
		if got := DirectoryEntries(c.keys, c.r); got != c.want {
			t.Errorf("DirectoryEntries(%d, %d) = %d, want %d", c.keys, c.r, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	env := newMemEnv()
	if _, err := New(Config{PageSize: 8}, env); err == nil {
		t.Fatal("accepted tiny page size")
	}
	if _, err := New(Config{PageSize: 4096, OccupancyThreshold: 1.5}, env); err == nil {
		t.Fatal("accepted threshold > 1")
	}
	if _, err := New(Config{PageSize: 4096, AnticipatedKeys: -1}, env); err == nil {
		t.Fatal("accepted negative keys")
	}
	if _, err := New(Config{PageSize: 4096, SigScheme: index.SigScheme{Bits: 77}}, env); err == nil {
		t.Fatal("accepted bad signature width")
	}
}

func TestInsertLookupDelete(t *testing.T) {
	r, _ := newTestRHIK(t, Config{})
	if _, rep, err := r.Insert(sig64(42), 1000); err != nil || rep {
		t.Fatalf("Insert = (%v,%v)", rep, err)
	}
	rp, ok, err := r.Lookup(sig64(42))
	if err != nil || !ok || rp != 1000 {
		t.Fatalf("Lookup = (%d,%v,%v)", rp, ok, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	old, rep, err := r.Insert(sig64(42), 2000)
	if err != nil || !rep || old != 1000 {
		t.Fatalf("update = (%d,%v,%v)", old, rep, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len after update = %d", r.Len())
	}
	rp, ok, err = r.Delete(sig64(42))
	if err != nil || !ok || rp != 2000 {
		t.Fatalf("Delete = (%d,%v,%v)", rp, ok, err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after delete = %d", r.Len())
	}
	if _, ok, _ := r.Lookup(sig64(42)); ok {
		t.Fatal("deleted record found")
	}
}

func TestExistMembership(t *testing.T) {
	r, _ := newTestRHIK(t, Config{})
	r.Insert(sig64(7), 70)
	if ok, _ := r.Exist(sig64(7)); !ok {
		t.Fatal("Exist false negative")
	}
	if ok, _ := r.Exist(sig64(8)); ok {
		t.Fatal("Exist reported absent key")
	}
}

func TestResizeTriggerAndGrowth(t *testing.T) {
	r, _ := newTestRHIK(t, Config{PageSize: 1024}) // R = 60
	if r.DirEntries() != 1 {
		t.Fatalf("initial D = %d", r.DirEntries())
	}
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[uint64]uint64)
	for i := 0; i < 5000; i++ {
		lo := rng.Uint64()
		rp := uint64(i + 1)
		if _, _, err := r.Insert(sig64(lo), rp); err != nil {
			if errors.Is(err, index.ErrCollision) {
				continue
			}
			t.Fatal(err)
		}
		inserted[lo] = rp
		if r.NeedsResize() {
			if err := r.Resize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.DirEntries() < 64 {
		t.Fatalf("directory only grew to %d entries", r.DirEntries())
	}
	if got := r.Occupancy(); got >= r.cfg.OccupancyThreshold {
		t.Fatalf("occupancy %.2f at or above threshold after resizes", got)
	}
	// Every record must survive all migrations.
	for lo, rp := range inserted {
		got, ok, err := r.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
	evs := r.ResizeEvents()
	if len(evs) == 0 {
		t.Fatal("no resize events recorded")
	}
	for i, ev := range evs {
		if ev.Took <= 0 {
			t.Errorf("resize %d took %v", i, ev.Took)
		}
		if i > 0 && evs[i].KeysBefore <= evs[i-1].KeysBefore {
			t.Errorf("resize %d keysBefore not increasing", i)
		}
	}
}

func TestResizeDoesNotReadKVPairs(t *testing.T) {
	// The paper's key migration property: only index pages are read.
	// With a cache large enough to hold everything, a resize performs
	// zero flash reads.
	r, env := newTestRHIK(t, Config{PageSize: 1024, CacheBudget: 64 << 20})
	rng := rand.New(rand.NewSource(2))
	for r.Len() < 40 {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	before := env.reads
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if env.reads != before {
		t.Fatalf("resize with warm cache performed %d flash reads", env.reads-before)
	}
}

func TestResizeInvalidatesOldPages(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 1024})
	rng := rand.New(rand.NewSource(3))
	for r.Len() < 50 {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	if err := r.Flush(); err != nil { // persist current tables
		t.Fatal(err)
	}
	persisted := make([]nand.PPA, 0)
	for p := range env.pages {
		persisted = append(persisted, p)
	}
	if len(persisted) == 0 {
		t.Fatal("nothing persisted")
	}
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	for _, p := range persisted {
		if !env.invalidated[p] {
			t.Fatalf("old index page %d not invalidated after resize", p)
		}
	}
}

func TestAtMostOneFlashReadPerLookup(t *testing.T) {
	// The headline guarantee: with a cold, minimal cache every lookup
	// costs at most one flash read.
	r, env := newTestRHIK(t, Config{PageSize: 1024, CacheBudget: 1})
	rng := rand.New(rand.NewSource(4))
	sigs := make([]uint64, 0, 2000)
	for len(sigs) < 2000 {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), 1); err == nil {
			sigs = append(sigs, lo)
		}
		if r.NeedsResize() {
			if err := r.Resize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, lo := range sigs {
		before := env.MetaReads()
		_, ok, err := r.Lookup(sig64(lo))
		if err != nil || !ok {
			t.Fatalf("Lookup(%#x) failed: %v %v", lo, ok, err)
		}
		if reads := env.MetaReads() - before; reads > 1 {
			t.Fatalf("lookup took %d flash reads, paper guarantees <= 1", reads)
		}
	}
}

func TestWritebackAndColdReload(t *testing.T) {
	// Insert with a tiny cache (forcing write-back), then verify every
	// record via cold reads.
	r, _ := newTestRHIK(t, Config{PageSize: 1024, CacheBudget: 1, AnticipatedKeys: 500})
	rng := rand.New(rand.NewSource(5))
	inserted := map[uint64]uint64{}
	for i := 0; len(inserted) < 300; i++ {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), uint64(i)); err == nil {
			inserted[lo] = uint64(i)
		}
	}
	for lo, rp := range inserted {
		got, ok, err := r.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("cold Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
}

func TestCheckpointRestore(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 1024, AnticipatedKeys: 2000})
	rng := rand.New(rand.NewSource(6))
	inserted := map[uint64]uint64{}
	for i := 0; len(inserted) < 500; i++ {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), uint64(i+1)); err == nil {
			inserted[lo] = uint64(i + 1)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	state := r.EncodeState()

	// "Power cycle": fresh instance over the same flash contents.
	r2, err := New(Config{PageSize: 1024, AnticipatedKeys: 2000}, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadState(state); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() || r2.DirEntries() != r.DirEntries() {
		t.Fatalf("restored Len=%d D=%d, want Len=%d D=%d",
			r2.Len(), r2.DirEntries(), r.Len(), r.DirEntries())
	}
	for lo, rp := range inserted {
		got, ok, err := r2.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("restored Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	r, _ := newTestRHIK(t, Config{})
	if err := r.LoadState([]byte("junk")); err == nil {
		t.Fatal("accepted junk checkpoint")
	}
	if err := r.LoadState(append([]byte(stateMagic), make([]byte, 10)...)); err == nil {
		t.Fatal("accepted truncated checkpoint")
	}
}

func TestRelocateKeepsRecordsAndInvalidatesOld(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 1024, AnticipatedKeys: 100})
	rng := rand.New(rand.NewSource(7))
	var sigs []uint64
	for len(sigs) < 50 {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), 9); err == nil {
			sigs = append(sigs, lo)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Pick a live page and relocate its bucket.
	var victim nand.PPA
	var bucket uint64
	found := false
	for p := range env.pages {
		if b, live := r.Owner(p); live {
			victim, bucket, found = p, b, true
			break
		}
	}
	if !found {
		t.Fatal("no live index pages")
	}
	if err := r.Relocate(bucket); err != nil {
		t.Fatal(err)
	}
	if !env.invalidated[victim] {
		t.Fatal("old page not invalidated by relocation")
	}
	if _, live := r.Owner(victim); live {
		t.Fatal("old page still live after relocation")
	}
	for _, lo := range sigs {
		if _, ok, err := r.Lookup(sig64(lo)); err != nil || !ok {
			t.Fatalf("record lost after relocation: %v %v", ok, err)
		}
	}
}

func TestCollisionAbortCounted(t *testing.T) {
	// A single-bucket index with a tiny page fills quickly; pushing far
	// past capacity must yield ErrCollision, not corruption.
	r, _ := newTestRHIK(t, Config{PageSize: 512, OccupancyThreshold: 0.99})
	rng := rand.New(rand.NewSource(8))
	var aborted bool
	for i := 0; i < 500 && !aborted; i++ {
		_, _, err := r.Insert(sig64(rng.Uint64()), 1)
		if errors.Is(err, index.ErrCollision) {
			aborted = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !aborted {
		t.Fatal("no collision abort while overfilling a fixed index")
	}
	if r.IndexStats().Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestWideSignatureMode(t *testing.T) {
	r, _ := newTestRHIK(t, Config{SigScheme: index.SigScheme{Bits: 128}})
	a := index.Sig{Lo: 5, Hi: 1}
	b := index.Sig{Lo: 5, Hi: 2}
	r.Insert(a, 100)
	r.Insert(b, 200)
	if rp, ok, _ := r.Lookup(a); !ok || rp != 100 {
		t.Fatalf("wide Lookup(a) = (%d,%v)", rp, ok)
	}
	if rp, ok, _ := r.Lookup(b); !ok || rp != 200 {
		t.Fatalf("wide Lookup(b) = (%d,%v)", rp, ok)
	}
	if ok, _ := r.Exist(index.Sig{Lo: 5, Hi: 3}); ok {
		t.Fatal("wide Exist matched wrong hi")
	}
}

func TestAppendFailureSurfaces(t *testing.T) {
	// Multiple buckets plus a one-byte cache budget force dirty
	// write-backs on nearly every insert; injected append failures must
	// surface as errors rather than vanish in the eviction path.
	r, env := newTestRHIK(t, Config{PageSize: 1024, CacheBudget: 1, AnticipatedKeys: 500})
	env.failAppends = true
	rng := rand.New(rand.NewSource(9))
	var sawErr bool
	for i := 0; i < 200; i++ {
		if _, _, err := r.Insert(sig64(rng.Uint64()), 1); err != nil && !errors.Is(err, index.ErrCollision) {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("append failures never surfaced")
	}
}

func TestFlushFailureSurfaces(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 1024})
	r.Insert(sig64(1), 1)
	env.failAppends = true
	if err := r.Flush(); err == nil {
		t.Fatal("Flush swallowed append failure")
	}
}

func TestOracleWithResizesProperty(t *testing.T) {
	f := func(seed int64, opKinds []uint8) bool {
		r, _ := newTestRHIK(t, Config{PageSize: 512})
		rng := rand.New(rand.NewSource(seed))
		oracle := map[uint64]uint64{}
		keys := make([]uint64, 0, 64)
		for _, k := range opKinds {
			var lo uint64
			if len(keys) > 0 && k%2 == 0 {
				lo = keys[rng.Intn(len(keys))]
			} else {
				lo = rng.Uint64()
			}
			switch k % 3 {
			case 0:
				rp := rng.Uint64() % (1 << 39)
				if _, _, err := r.Insert(sig64(lo), rp); err == nil {
					if _, dup := oracle[lo]; !dup {
						keys = append(keys, lo)
					}
					oracle[lo] = rp
				}
			case 1:
				got, ok, err := r.Lookup(sig64(lo))
				want, exists := oracle[lo]
				if err != nil || ok != exists || (ok && got != want) {
					return false
				}
			case 2:
				_, ok, err := r.Delete(sig64(lo))
				_, exists := oracle[lo]
				if err != nil || ok != exists {
					return false
				}
				delete(oracle, lo)
			}
			if r.NeedsResize() {
				if err := r.Resize(); err != nil {
					return false
				}
			}
		}
		if r.Len() != int64(len(oracle)) {
			return false
		}
		for lo, want := range oracle {
			got, ok, err := r.Lookup(sig64(lo))
			if err != nil || !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryDRAMFootprintSmall(t *testing.T) {
	// Paper: the directory costs ~0.005 bytes/key for 32 KiB pages; check
	// our directory DRAM share stays in that regime.
	r, _ := newTestRHIK(t, Config{PageSize: 32 * 1024, AnticipatedKeys: 1_000_000})
	perKey := float64(r.DirEntries()*5) / 1_000_000
	if perKey > 0.01 {
		t.Fatalf("directory costs %.4f bytes/key, want < 0.01", perKey)
	}
}

// gcEnv is a memEnv whose AppendPage first does what the device's does
// when the index log needs a block and free blocks are at low water:
// run GC, whose relocations look keys up in the index. One level of
// that is enough to nest a second write-back inside the first.
type gcEnv struct {
	*memEnv
	gc     func() // re-enters the index; nil outside the churn phase
	depth  int
	nested int // write-backs that ran inside another one's AppendPage
}

func (e *gcEnv) AppendPage(data []byte) (nand.PPA, error) {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > 1 {
		e.nested++
	} else if e.gc != nil {
		e.gc()
	}
	return e.memEnv.AppendPage(data)
}

func TestWriteBackNestedInsideWriteBack(t *testing.T) {
	// Sixteen buckets behind an eight-table cache, the writer walking the
	// buckets round-robin so every insert misses and every resident table
	// is dirty. Paging a table in evicts a dirty victim, whose AppendPage
	// re-enters the index for a non-resident bucket, which evicts and
	// writes back a second dirty table before the first one's page image
	// has been programmed. Both images must land intact.
	const buckets, perBucket, tableBytes = 16, 100, 240 * hopscotch.SlotSize
	env := &gcEnv{memEnv: newMemEnv()}
	r, err := New(Config{PageSize: 4096, AnticipatedKeys: buckets * 240, CacheBudget: 8 * tableBytes}, env)
	if err != nil {
		t.Fatal(err)
	}
	if r.DirEntries() != buckets {
		t.Fatalf("D = %d, want %d", r.DirEntries(), buckets)
	}
	want := make(map[uint64]uint64)
	put := func(lo, rp uint64) {
		t.Helper()
		if _, _, err := r.Insert(sig64(lo), rp); err != nil {
			t.Fatalf("Insert(%d): %v", lo, err)
		}
		want[lo] = rp
	}
	for lo := uint64(0); lo < buckets*perBucket; lo++ {
		put(lo, lo+1)
	}

	var next uint64
	env.gc = func() {
		for ; r.cache.Contains(next % buckets); next++ {
		}
		if _, ok, err := r.Lookup(sig64(next % buckets)); err != nil || !ok {
			t.Fatalf("GC lookup in bucket %d = (%v, %v)", next%buckets, ok, err)
		}
	}
	for i := uint64(0); i < 4000; i++ {
		put(i%(buckets*perBucket), 1_000_000+i)
	}
	env.gc = nil
	if env.nested == 0 {
		t.Fatal("no write-back ever nested inside another; the test exercises nothing")
	}

	for lo, rp := range want {
		if got, ok, err := r.Lookup(sig64(lo)); err != nil || !ok || got != rp {
			t.Fatalf("after %d nested write-backs: Lookup(%d) = (%d, %v, %v), want %d", env.nested, lo, got, ok, err, rp)
		}
	}
}

// TestGetReadMissRule pins what a read-only Get does when the bucket's
// table is not cached. With a full cache of clean tables it answers
// from the page image: one flash read per miss, no eviction, no install,
// no write-back, and the answers Lookup gives. When the CLOCK victim is
// dirty it installs over it, and the victim is written back once. A
// cache with room installs. A bucket with no page costs nothing.
func TestGetReadMissRule(t *testing.T) {
	const buckets, perBucket, tableBytes = 16, 20, 60 * hopscotch.SlotSize
	r, env := newTestRHIK(t, Config{PageSize: 1024, AnticipatedKeys: buckets * 60, CacheBudget: 4 * tableBytes})
	if r.DirEntries() != buckets {
		t.Fatalf("D = %d, want %d", r.DirEntries(), buckets)
	}
	if rp, ok, err := r.Get(sig64(5)); err != nil || ok || rp != 0 || env.reads != 0 || r.cache.Len() != 0 {
		t.Fatalf("Get in a bucket with no page = (%d, %v, %v) after %d reads, %d cached", rp, ok, err, env.reads, r.cache.Len())
	}
	want := map[uint64]uint64{}
	for lo := uint64(0); lo < buckets*perBucket; lo++ {
		if _, _, err := r.Insert(sig64(lo), lo+1); err != nil {
			t.Fatal(err)
		}
		want[lo] = lo + 1
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cold := func() []uint64 { // present and absent signatures of uncached buckets
		var sigs []uint64
		for lo := uint64(0); lo < 2*buckets*perBucket; lo++ {
			if !r.cache.Contains(lo % buckets) {
				sigs = append(sigs, lo)
			}
		}
		return sigs
	}

	// Clean victims: probe in place.
	sigs := cold()
	before, reads, appends := r.CacheStats(), env.reads, env.appends
	got := make([]uint64, len(sigs))
	for i, lo := range sigs {
		rp, ok, err := r.Get(sig64(lo))
		if err != nil || ok != (want[lo] != 0) || rp != want[lo] {
			t.Fatalf("Get(%d) = (%d, %v, %v), want %d", lo, rp, ok, err, want[lo])
		}
		got[i] = rp
	}
	after := r.CacheStats()
	if env.reads-reads != int64(len(sigs)) || after.Misses-before.Misses != int64(len(sigs)) {
		t.Fatalf("%d misses cost %d reads and counted %d misses", len(sigs), env.reads-reads, after.Misses-before.Misses)
	}
	if after.Evictions != before.Evictions || after.Inserts != before.Inserts || env.appends != appends {
		t.Fatalf("clean-victim misses evicted %d, installed %d, wrote %d pages; want none",
			after.Evictions-before.Evictions, after.Inserts-before.Inserts, env.appends-appends)
	}
	for i, lo := range sigs {
		if rp, _, err := r.Lookup(sig64(lo)); err != nil || rp != got[i] {
			t.Fatalf("Lookup(%d) = (%d, %v), Get said %d", lo, rp, err, got[i])
		}
	}

	// Dirty victims: every cached table takes an update, then a miss
	// installs over one of them and writes it back.
	for b := uint64(0); b < buckets; b++ {
		if r.cache.Contains(b) {
			lo := b + buckets*perBucket
			if _, _, err := r.Insert(sig64(lo), lo+1); err != nil {
				t.Fatal(err)
			}
			want[lo] = lo + 1
		}
	}
	lo := cold()[0]
	before, appends = r.CacheStats(), env.appends
	if rp, _, err := r.Get(sig64(lo)); err != nil || rp != want[lo] {
		t.Fatalf("Get(%d) = (%d, %v), want %d", lo, rp, err, want[lo])
	}
	after = r.CacheStats()
	if !r.cache.Contains(lo%buckets) || after.Inserts-before.Inserts != 1 || after.Evictions-before.Evictions != 1 || env.appends-appends != 1 {
		t.Fatalf("dirty-victim miss: cached %v, %d installs, %d evictions, %d write-backs; want true, 1, 1, 1",
			r.cache.Contains(lo%buckets), after.Inserts-before.Inserts, after.Evictions-before.Evictions, env.appends-appends)
	}

	// Room: the same miss installs and evicts nothing.
	r.ResizeCache(buckets * tableBytes)
	lo = cold()[0]
	before, appends = r.CacheStats(), env.appends
	if rp, _, err := r.Get(sig64(lo)); err != nil || rp != want[lo] {
		t.Fatalf("Get(%d) = (%d, %v), want %d", lo, rp, err, want[lo])
	}
	after = r.CacheStats()
	if !r.cache.Contains(lo%buckets) || after.Inserts-before.Inserts != 1 || after.Evictions != before.Evictions || env.appends != appends {
		t.Fatal("a miss with room in the cache did not install, or evicted")
	}
	for lo, rp := range want {
		if got, ok, err := r.Get(sig64(lo)); err != nil || !ok || got != rp {
			t.Fatalf("Get(%d) = (%d, %v, %v), want %d", lo, got, ok, err, rp)
		}
	}
}
