package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/hopscotch"
	"repro/internal/index"
	"repro/internal/nand"
)

// optRHIK builds a RHIK with an epoch domain attached, the configuration
// the lock-free device tier runs it under, and returns a pin the test
// holds for its whole probe/validate lifetime (mirroring the device).
func optRHIK(t *testing.T, cfg Config) (*RHIK, *epoch.Domain, epoch.Pin) {
	t.Helper()
	dom := epoch.NewDomain()
	cfg.Reclaim = dom
	r, _ := newTestRHIK(t, cfg)
	pin, ok := dom.TryPin()
	if !ok {
		t.Fatal("fresh domain refused a pin")
	}
	t.Cleanup(func() { dom.Unpin(pin) })
	return r, dom, pin
}

// TestOptimisticProbePrecision pins how narrowly invalidation is scoped:
// a probe stays valid across writes to OTHER buckets and dies on the
// first write to its own.
func TestOptimisticProbePrecision(t *testing.T) {
	r, _, _ := optRHIK(t, Config{PageSize: 1024, AnticipatedKeys: 4096})
	d := uint64(r.DirEntries())
	if d < 2 {
		t.Fatalf("anticipated sizing produced %d buckets, need several", d)
	}
	sigA := sig64(0) // bucket 0
	if _, _, err := r.Insert(sigA, 7); err != nil {
		t.Fatal(err)
	}
	p, st := r.PeekOptimistic(sigA)
	if st != index.OptOK || !p.Found || p.RP != 7 {
		t.Fatalf("probe = (%+v, %v), want OK/found/rp=7", p, st)
	}
	// A write to bucket 1 must not disturb the probe.
	if _, _, err := r.Insert(sig64(1), 8); err != nil {
		t.Fatal(err)
	}
	if !r.RevalidateOptimistic(p) {
		t.Fatal("write to another bucket invalidated the probe")
	}
	// A write to bucket 0 (same bucket, different key) must kill it.
	if _, _, err := r.Insert(sig64(d), 9); err != nil {
		t.Fatal(err)
	}
	if r.RevalidateOptimistic(p) {
		t.Fatal("write to the probed bucket left the probe valid")
	}
	// Deletes count too: re-probe, delete the neighbor, revalidate.
	p, st = r.PeekOptimistic(sigA)
	if st != index.OptOK {
		t.Fatalf("re-probe status %v", st)
	}
	if _, _, err := r.Delete(sig64(d)); err != nil {
		t.Fatal(err)
	}
	if r.RevalidateOptimistic(p) {
		t.Fatal("delete in the probed bucket left the probe valid")
	}
}

// TestOptimisticProbeInvalidatedByResize: a stop-the-world resize
// retires every old-generation table, so a probe taken before it must
// fail revalidation, and a fresh probe must find the record in the new
// generation at the same record pointer.
func TestOptimisticProbeInvalidatedByResize(t *testing.T) {
	r, _, _ := optRHIK(t, Config{PageSize: 1024, HaltResize: true})
	rng := rand.New(rand.NewSource(11))
	probeSig := sig64(rng.Uint64())
	if _, _, err := r.Insert(probeSig, 42); err != nil {
		t.Fatal(err)
	}
	for !r.NeedsResize() {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	p, st := r.PeekOptimistic(probeSig)
	if st != index.OptOK || !p.Found || p.RP != 42 {
		t.Fatalf("pre-resize probe = (%+v, %v), want OK/found/rp=42", p, st)
	}
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if r.RevalidateOptimistic(p) {
		t.Fatal("full resize left a pre-resize probe valid")
	}
	p, st = r.PeekOptimistic(probeSig)
	if st != index.OptOK || !p.Found || p.RP != 42 {
		t.Fatalf("post-resize probe = (%+v, %v), want OK/found/rp=42", p, st)
	}
	if !r.RevalidateOptimistic(p) {
		t.Fatal("post-resize probe does not revalidate")
	}
}

// TestOptimisticProbeInvalidatedByEviction: CLOCK eviction unpublishes
// the resident slot and poisons the table before the entry is retired,
// so a probe into an evicted bucket must fail revalidation rather than
// chase a recycled table.
func TestOptimisticProbeInvalidatedByEviction(t *testing.T) {
	r, dom, _ := optRHIK(t, Config{
		PageSize:        1024,
		AnticipatedKeys: 4096,
		CacheBudget:     3 * 1024, // room for ~2 tables: inserts elsewhere must evict
	})
	d := uint64(r.DirEntries())
	if d < 8 {
		t.Fatalf("anticipated sizing produced %d buckets, need several", d)
	}
	sigA := sig64(0)
	if _, _, err := r.Insert(sigA, 7); err != nil {
		t.Fatal(err)
	}
	p, st := r.PeekOptimistic(sigA)
	if st != index.OptOK {
		t.Fatalf("probe status %v", st)
	}
	evicted := false
	for b := uint64(1); b < d; b++ {
		if _, _, err := r.Insert(sig64(b), b); err != nil {
			t.Fatal(err)
		}
		if !r.cache.Contains(r.bucketOf(sigA)) {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("filling other buckets never evicted the probed table")
	}
	if r.RevalidateOptimistic(p) {
		t.Fatal("eviction left the probe valid")
	}
	// The retired table must still be deferred behind this test's pin.
	if dom.Pending() == 0 {
		t.Fatal("evicted table was recycled immediately despite a live pin")
	}
}

// TestOptimisticUnmigratedBucketEscalates pins the incremental-resize
// hand-off: after the directory swap every bucket reads OptNeedExclusive
// (nil resident slot in the new generation), a pre-swap probe stays
// valid until ITS bucket migrates, and once an exclusive operation
// migrates and publishes the bucket, probes go lock-free again at the
// same record pointer.
func TestOptimisticUnmigratedBucketEscalates(t *testing.T) {
	r, _, _ := optRHIK(t, Config{PageSize: 1024})
	rng := rand.New(rand.NewSource(12))
	probeSig := sig64(rng.Uint64())
	if _, _, err := r.Insert(probeSig, 42); err != nil {
		t.Fatal(err)
	}
	for !r.NeedsResize() {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	pre, st := r.PeekOptimistic(probeSig)
	if st != index.OptOK {
		t.Fatalf("pre-swap probe status %v", st)
	}
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if !migrating(r) {
		t.Fatal("incremental resize did not arm a migration")
	}
	// The swap alone moves no records: the old-generation probe is still
	// an accurate read of the index.
	if !r.RevalidateOptimistic(pre) {
		t.Fatal("directory swap invalidated a probe whose bucket is untouched")
	}
	// But the new generation has produced no buckets yet, so a fresh
	// probe must escalate.
	if _, st := r.PeekOptimistic(probeSig); st != index.OptNeedExclusive {
		t.Fatalf("unmigrated bucket probe status %v, want OptNeedExclusive", st)
	}
	// An exclusive lookup migrates the touched bucket, which unpublishes
	// and poisons its old table...
	if rp, ok, err := r.Lookup(probeSig); err != nil || !ok || rp != 42 {
		t.Fatalf("Lookup = (%d,%v,%v), want 42", rp, ok, err)
	}
	if r.RevalidateOptimistic(pre) {
		t.Fatal("bucket migration left the pre-swap probe valid")
	}
	// ...and publishes the new one: lock-free service resumes.
	p, st := r.PeekOptimistic(probeSig)
	if st != index.OptOK || !p.Found || p.RP != 42 {
		t.Fatalf("post-migration probe = (%+v, %v), want OK/found/rp=42", p, st)
	}
	if !r.RevalidateOptimistic(p) {
		t.Fatal("post-migration probe does not revalidate")
	}
}

// TestOptimisticReadersRacePageInChurn guards the rule that lets
// hopscotch's Reset and DecodeFrom use plain stores: a table is
// rewritten only while no optimistic reader can reach it. One writer
// cycles 8 buckets through a 2-table cache, so nearly every operation
// evicts a dirty table (unpublish, poison, write back, retire through
// the epoch domain) and pages another in over a pooled table, while 4
// readers probe lock-free under pins. Run with -race: a table handed
// back to the pool past a pinned reader shows up as a data race, or as
// a validated probe holding another signature's record pointer. Every
// accepted probe also commits, which holds the entry's touch handle and
// the recycled CLOCK node behind it to the same rule. The get variant
// has the writer also read a record before each insert with the
// read-only Get, whose misses either install over a dirty victim or
// answer from the page image without touching the cache; it must see
// both, and every answer must be what the writer stored last.
func TestOptimisticReadersRacePageInChurn(t *testing.T) {
	t.Run("clock", func(t *testing.T) { racePageInChurn(t, false) })
	t.Run("get", func(t *testing.T) { racePageInChurn(t, true) })
}

func racePageInChurn(t *testing.T, gets bool) {
	const (
		buckets = 8
		ids     = 160 // 20 per bucket of 60 slots: no resize, no collisions
		readers = 4
	)
	dom := epoch.NewDomain()
	r, env := newTestRHIK(t, Config{
		PageSize:        1024,
		AnticipatedKeys: buckets * 60,
		CacheBudget:     2 * 1020, // two tables
		Reclaim:         dom,
	})
	if r.DirEntries() != buckets || r.RecordsPerTable() != 60 {
		t.Fatalf("geometry D=%d R=%d, want %d buckets of 60", r.DirEntries(), r.RecordsPerTable(), buckets)
	}
	// The record pointer carries its signature's id in the high bits and
	// a version in the low 16, so a reader can tell whose record it got.
	sigOf := func(id uint64) index.Sig { return sig64(id<<3 | id%buckets) }
	rpOf := func(id, ver uint64) uint64 { return id<<16 | ver&0xffff }
	last := make([]uint64, ids) // what the writer stored last, per id
	for id := uint64(0); id < ids; id++ {
		last[id] = rpOf(id, 0)
		if _, _, err := r.Insert(sigOf(id), last[id]); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var accepted, retries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := seed; !stop.Load(); i++ {
				id := i % ids
				pin, ok := dom.TryPin()
				if !ok {
					continue
				}
				p, st := r.PeekOptimistic(sigOf(id))
				switch {
				case st == index.OptRetry:
					retries.Add(1)
				case st == index.OptOK && !r.RevalidateOptimistic(p):
					retries.Add(1)
				case st == index.OptOK:
					accepted.Add(1)
					if !p.Found || p.RP>>16 != id {
						t.Errorf("validated probe for id %d = (rp %#x, found %v)", id, p.RP, p.Found)
						stop.Store(true)
					}
					r.CommitOptimistic(p)
				}
				dom.Unpin(pin)
			}
		}(uint64(g) * 41)
	}

	var installs, probes int
	deadline := time.Now().Add(5 * time.Second)
	for round := uint64(1); !stop.Load(); round++ {
		if gets {
			id := (round*5 + 3) % ids
			inserts, reads := r.CacheStats().Inserts, env.reads
			if got, ok, err := r.Get(sigOf(id)); err != nil || !ok || got != last[id] {
				t.Fatalf("round %d: Get(id %d) = (%#x, %v, %v), want %#x", round, id, got, ok, err, last[id])
			}
			switch {
			case r.CacheStats().Inserts > inserts:
				installs++
			case env.reads > reads:
				probes++
			}
		}
		id := round * 7 % ids
		last[id] = rpOf(id, round)
		if _, _, err := r.Insert(sigOf(id), last[id]); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dom.Collect()
		if round%256 == 0 {
			time.Sleep(time.Microsecond) // park, so readers get the CPU
			if (round >= 4000 && accepted.Load() > 2000 && retries.Load() > 0) || time.Now().After(deadline) {
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// No update may have gone into a table that was already on its way
	// out: readers touching the resident tables' reference bits during
	// the writer's sweep must not get the table being cached evicted.
	for id, want := range last {
		if got, ok, err := r.Lookup(sigOf(uint64(id))); err != nil || !ok || got != want {
			t.Fatalf("id %d reads back (%#x, %v, %v), want %#x", id, got, ok, err, want)
		}
	}
	if cs := r.CacheStats(); env.appends < 1000 || env.reads < 1000 || cs.Evictions < 1000 {
		t.Fatalf("only %d write-backs, %d page-ins and %d evictions: the cache never churned", env.appends, env.reads, cs.Evictions)
	}
	if gets && (installs == 0 || probes == 0) {
		t.Fatalf("read misses installed %d times and probed the image %d times: want both", installs, probes)
	}
	if accepted.Load() == 0 {
		t.Skip("no optimistic probe validated between evictions (single-core timing)")
	}
	if retries.Load() == 0 {
		t.Skip("schedule never overlapped a probe with a page-in; nothing exercised (single-core timing)")
	}
	t.Logf("write-backs=%d page-ins=%d accepted=%d retries=%d", env.appends, env.reads, accepted.Load(), retries.Load())
}

// peekEnv is memEnv with uncharged page reads, which turns on the
// lock-free probe of non-resident buckets. Single-goroutine tests only:
// memEnv's page map is not safe for concurrent readers.
type peekEnv struct{ *memEnv }

func (e peekEnv) PeekPage(p nand.PPA) []byte { return e.pages[p] }

// TestOptimisticProbeFollowsReadMissRule pins when a lock-free probe of
// a bucket whose table is not cached answers from the bucket's page
// image: exactly when a locked Get would leave the cache alone. A full
// cache whose CLOCK victim is clean and unreferenced answers, with the
// page to charge, and so does a bucket with no page (not found, nothing
// to charge). A dirty victim, room in the cache, a victim a hit has
// referenced since the rule was published, and a migration in flight
// all refuse. Moving the bucket's page invalidates an answer.
func TestOptimisticProbeFollowsReadMissRule(t *testing.T) {
	const buckets, perBucket, tableBytes = 16, 20, 60 * hopscotch.SlotSize
	env := peekEnv{newMemEnv()}
	r, err := New(Config{PageSize: 1024, AnticipatedKeys: buckets * 60, CacheBudget: 4 * tableBytes}, env)
	if err != nil {
		t.Fatal(err)
	}
	if p, st := r.PeekOptimistic(sig64(5)); st != index.OptOK || p.Found || p.FromPage {
		t.Fatalf("probe of a bucket with no page = (%+v, %v), want OK, not found, no page", p, st)
	}
	for lo := uint64(0); lo < buckets*perBucket; lo++ {
		if _, _, err := r.Insert(sig64(lo), lo+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cold := func() uint64 {
		for lo := uint64(0); ; lo++ {
			if !r.cache.Contains(lo % buckets) {
				return lo
			}
		}
	}
	probe := func(lo uint64) (OptProbe, index.OptStatus) {
		t.Helper()
		p, st := r.PeekOptimistic(sig64(lo))
		if st == index.OptOK && (!p.Found || p.RP != lo+1 || !p.FromPage || !r.RevalidateOptimistic(p)) {
			t.Fatalf("probe of %d = %+v, want found rp %d from a valid page", lo, p, lo+1)
		}
		return p, st
	}

	// Clean victims: answered from the image, counted as a miss.
	lo := cold()
	p, st := probe(lo)
	if st != index.OptOK {
		t.Fatalf("cold probe with a clean victim: status %v, want OK", st)
	}
	misses := r.CacheStats().Misses
	r.CommitOptimistic(p)
	if got := r.CacheStats().Misses - misses; got != 1 {
		t.Fatalf("committing an image answer counted %d misses, want 1", got)
	}

	// A hit on the published victim sets its reference bit: the rule may
	// now name another victim, so probes refuse until a locked Get that
	// misses republishes it.
	g := r.g()
	if g.victimHeld.Load() {
		t.Fatal("the flush left every cached table referenced; the victim is held")
	}
	for b := range g.resident {
		if g.resident[b].Load() == g.readMiss.Load() {
			r.cache.Get(uint64(b))
		}
	}
	if _, st := probe(lo); st != index.OptNeedExclusive {
		t.Fatalf("probe after the victim was referenced: status %v, want OptNeedExclusive", st)
	}
	if _, _, err := r.Get(sig64(lo)); err != nil {
		t.Fatal(err)
	}
	if _, st := probe(lo); st != index.OptOK {
		t.Fatalf("probe after a locked miss republished the rule: status %v, want OK", st)
	}

	// Moving the bucket's page (what index-zone GC does) invalidates the
	// answer, though the bucket ends up cached clean.
	p, _ = probe(lo)
	if err := r.Relocate(lo % buckets); err != nil {
		t.Fatal(err)
	}
	if r.RevalidateOptimistic(p) {
		t.Fatal("a probe stayed valid across its bucket's relocation")
	}

	// Dirty victims: every cached table takes an update, so a miss would
	// install over one of them.
	for b := uint64(0); b < buckets; b++ {
		if r.cache.Contains(b) {
			if _, _, err := r.Insert(sig64(b), b+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, st := probe(cold()); st != index.OptNeedExclusive {
		t.Fatalf("cold probe with a dirty victim: status %v, want OptNeedExclusive", st)
	}

	// Room: a miss would install without evicting.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	r.ResizeCache(buckets * tableBytes)
	if _, st := probe(cold()); st != index.OptNeedExclusive {
		t.Fatalf("cold probe with room in the cache: status %v, want OptNeedExclusive", st)
	}

	// Migration in flight: the doubled generation's slots may not be
	// produced yet.
	r.ResizeCache(4 * tableBytes)
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if !migrating(r) {
		t.Fatal("the resize did not leave a migration in flight")
	}
	for lo := uint64(0); lo < buckets*perBucket; lo++ {
		if p, st := r.PeekOptimistic(sig64(lo)); st == index.OptOK && p.ref == nil {
			t.Fatalf("probe of %d answered without a resident table while migrating: %+v", lo, p)
		}
	}
}
