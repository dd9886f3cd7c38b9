package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/sim"
)

// migrating reports whether a migration is in flight.
func migrating(r *RHIK) bool {
	left, _ := r.PendingSplits()
	return left > 0
}

func TestIncrementalResizeStartsFast(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 1024})
	rng := rand.New(rand.NewSource(1))
	for !r.NeedsResize() {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	before := env.Now()
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if !migrating(r) {
		t.Fatal("incremental resize did not arm a migration")
	}
	if took := env.Now().Sub(before); took > sim.Millisecond {
		t.Fatalf("incremental resize start took %v, want near-zero halt", took)
	}
	if r.DirEntries() != 2 {
		t.Fatalf("directory not doubled: %d", r.DirEntries())
	}
}

func TestIncrementalMigrationPreservesRecords(t *testing.T) {
	r, _ := newTestRHIK(t, Config{PageSize: 512})
	rng := rand.New(rand.NewSource(2))
	inserted := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), uint64(i+1)); err != nil {
			if errors.Is(err, index.ErrCollision) {
				continue
			}
			t.Fatal(err)
		}
		inserted[lo] = uint64(i + 1)
		if r.NeedsResize() {
			if err := r.Resize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Some migrations complete lazily through the inserts themselves;
	// every record must be reachable mid-flight and after draining.
	for lo, rp := range inserted {
		got, ok, err := r.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if migrating(r) {
		t.Fatal("Flush did not drain migration")
	}
	if len(r.ResizeEvents()) == 0 {
		t.Fatal("no resize events recorded")
	}
}

func TestIncrementalDeletesAndUpdatesDuringMigration(t *testing.T) {
	r, _ := newTestRHIK(t, Config{PageSize: 512, MigrateStepBuckets: 1})
	rng := rand.New(rand.NewSource(3))
	oracle := map[uint64]uint64{}
	keys := []uint64{}
	for i := 0; i < 4000; i++ {
		var lo uint64
		if len(keys) > 0 && i%3 == 0 {
			lo = keys[rng.Intn(len(keys))]
		} else {
			lo = rng.Uint64()
		}
		switch i % 5 {
		case 4:
			_, ok, err := r.Delete(sig64(lo))
			if err != nil {
				t.Fatal(err)
			}
			if _, exists := oracle[lo]; exists != ok {
				t.Fatalf("op %d: delete ok=%v oracle=%v", i, ok, exists)
			}
			delete(oracle, lo)
		default:
			rp := rng.Uint64() % (1 << 39)
			if _, _, err := r.Insert(sig64(lo), rp); err != nil {
				if errors.Is(err, index.ErrCollision) {
					continue
				}
				t.Fatal(err)
			}
			if _, dup := oracle[lo]; !dup {
				keys = append(keys, lo)
			}
			oracle[lo] = rp
		}
		if r.NeedsResize() {
			if err := r.Resize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.Len() != int64(len(oracle)) {
		t.Fatalf("Len = %d, oracle %d", r.Len(), len(oracle))
	}
	for lo, rp := range oracle {
		got, ok, err := r.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
}

func TestIncrementalRelocateOldGenerationPage(t *testing.T) {
	r, env := newTestRHIK(t, Config{PageSize: 512, MigrateStepBuckets: 1})
	rng := rand.New(rand.NewSource(4))
	for !r.NeedsResize() {
		r.Insert(sig64(rng.Uint64()), 1)
	}
	if err := r.Flush(); err != nil { // persist pre-resize tables
		t.Fatal(err)
	}
	if err := r.Resize(); err != nil {
		t.Fatal(err)
	}
	if !migrating(r) {
		t.Fatal("not migrating")
	}
	// Relocate an old-generation page mid-migration: it must migrate the
	// bucket and invalidate the old copy.
	var oldPPA, unit uint64
	found := false
	for p := range env.pages {
		if u, live := r.Owner(p); live {
			oldPPA, unit, found = uint64(p), u, true
			break
		}
	}
	if !found {
		t.Skip("all pages already migrated (cache covered everything)")
	}
	if err := r.Relocate(unit); err != nil {
		t.Fatal(err)
	}
	if _, live := r.Owner(0); live && uint64(0) == oldPPA {
		t.Fatal("old page still live")
	}
}

func TestIncrementalCheckpointConsistency(t *testing.T) {
	// A checkpoint (Flush + EncodeState) taken mid-migration must
	// restore to a complete single-generation index.
	r, env := newTestRHIK(t, Config{PageSize: 512})
	rng := rand.New(rand.NewSource(5))
	inserted := map[uint64]uint64{}
	for i := 0; len(inserted) < 2000; i++ {
		lo := rng.Uint64()
		if _, _, err := r.Insert(sig64(lo), uint64(i+1)); err == nil {
			inserted[lo] = uint64(i + 1)
		}
		if r.NeedsResize() {
			r.Resize()
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	state := r.EncodeState()

	r2, err := New(Config{PageSize: 512}, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadState(state); err != nil {
		t.Fatal(err)
	}
	for lo, rp := range inserted {
		got, ok, err := r2.Lookup(sig64(lo))
		if err != nil || !ok || got != rp {
			t.Fatalf("restored Lookup(%#x) = (%d,%v,%v), want %d", lo, got, ok, err, rp)
		}
	}
}

func TestIncrementalMaxOpCostBounded(t *testing.T) {
	// The point of incremental resizing: no single operation pays for a
	// full migration. Compare the worst per-op time around the growth of
	// a large index in both modes.
	worst := func(halt bool) sim.Duration {
		env := newMemEnv()
		cfg := Config{PageSize: 4096, AnticipatedKeys: 20000, HaltResize: halt}
		r, err := New(cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		var worst sim.Duration
		for i := 0; i < 30000; i++ {
			before := env.Now()
			if _, _, err := r.Insert(sig64(rng.Uint64()), 1); err != nil &&
				!errors.Is(err, index.ErrCollision) {
				t.Fatal(err)
			}
			if r.NeedsResize() {
				if err := r.Resize(); err != nil {
					t.Fatal(err)
				}
			}
			if d := env.Now().Sub(before); d > worst {
				worst = d
			}
		}
		return worst
	}
	halt := worst(true)
	incr := worst(false)
	if incr*4 > halt {
		t.Fatalf("incremental worst op %v not well below stop-the-world %v", incr, halt)
	}
}

// TestHaltAndIncrementalAgree: the halt is the same migration drained
// inside Resize, so the same seeded inserts give the same records, the
// same directory and the same number of doublings either way.
func TestHaltAndIncrementalAgree(t *testing.T) {
	type record struct{ lo, hi, rp uint64 }
	// grow inserts n seeded records, or with n < 0 as many as it takes to
	// stop past 4000 with a migration in flight, and reports the count.
	grow := func(halt bool, n int) (map[record]bool, int, int, int) {
		r, _ := newTestRHIK(t, Config{PageSize: 512, CacheBudget: 8 << 10, HaltResize: halt})
		rng := rand.New(rand.NewSource(9))
		i := 0
		for ; n < 0 && (i < 4000 || !migrating(r)) || i < n; i++ {
			if _, _, err := r.Insert(sig64(rng.Uint64()), uint64(i+1)); err != nil && !errors.Is(err, index.ErrCollision) {
				t.Fatal(err)
			}
			if r.NeedsResize() {
				if err := r.Resize(); err != nil {
					t.Fatal(err)
				}
			}
		}
		recs := map[record]bool{}
		if err := r.RangeRecords(func(lo, hi, rp uint64) bool {
			recs[record{lo, hi, rp}] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return recs, r.DirEntries(), len(r.ResizeEvents()), i
	}
	recs, d, n, inserts := grow(false, -1)
	haltRecs, haltD, haltN, _ := grow(true, inserts)
	t.Logf("%d inserts: %d records, D=%d after %d doublings", inserts, len(recs), d, n)
	if d != haltD || n != haltN {
		t.Fatalf("default: D=%d after %d doublings; HaltResize: D=%d after %d", d, n, haltD, haltN)
	}
	if len(recs) != len(haltRecs) {
		t.Fatalf("default holds %d records, HaltResize %d", len(recs), len(haltRecs))
	}
	for rec := range haltRecs {
		if !recs[rec] {
			t.Fatalf("record %+v missing from the default run", rec)
		}
	}
}
