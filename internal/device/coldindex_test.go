package device

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hopscotch"
)

// TestColdIndexOracle runs the paper's regime, an index larger than the
// DRAM that caches it, against a map oracle: 64 directory buckets behind
// a cache of 8 record tables, and a seeded GET/EXIST/PUT/DELETE mix over
// keys of 48 buckets plus keys of the 16 buckets nothing is ever written
// to. Every answer must match the oracle; no GET may cost more than one
// index flash read; and no PUT or DELETE may either, which is what breaks
// first if a read-only lookup declines to install a table and the same
// command's index update then reads the page again.
func TestColdIndexOracle(t *testing.T) {
	const buckets, written = 64, 48
	geo := smallNAND()
	geo.BlocksPerDie, geo.PagesPerBlock = 64, 32 // 64 MiB: the run never needs GC
	r := core.RecordsPerTable(geo.PageSize, false)
	d := openSmall(t, func(c *Config) {
		c.NAND = geo
		c.AnticipatedKeys = buckets * int64(r)
		c.CacheBudget = 8 * int64(hopscotch.EncodedSize(r))
		c.DisableAutoResize = true
	})
	if got := d.idx.(*core.RHIK).DirEntries(); got != buckets {
		t.Fatalf("D = %d, want %d", got, buckets)
	}
	var live, never [][]byte
	for i := 0; len(live) < 600 || len(never) < 100; i++ {
		k := key(i)
		if d.scheme.Compute(k).Lo%buckets < written {
			live = append(live, k)
		} else {
			never = append(never, k)
		}
	}
	oracle := map[string][]byte{}
	check := func(op int, k []byte) {
		t.Helper()
		want, has := oracle[string(k)]
		v, _, err := d.Retrieve(d.Now(), k)
		if has && (err != nil || !bytes.Equal(v, want)) || !has && !errors.Is(err, ErrNotFound) {
			t.Fatalf("op %d: GET %q = (%d bytes, %v), oracle has=%v", op, k, len(v), err, has)
		}
	}
	// oneRead runs a mutation and fails if it read more than one index page.
	oneRead := func(op int, what string, f func() error) error {
		t.Helper()
		before := d.env.metaReads.Load()
		err := f()
		if n := d.env.metaReads.Load() - before; n > 1 {
			t.Fatalf("op %d: %s read %d index pages, want <= 1", op, what, n)
		}
		return err
	}

	rng := rand.New(rand.NewSource(26))
	for op := 0; op < 4000; op++ {
		k := live[rng.Intn(len(live))]
		switch n := rng.Intn(20); {
		case n < 13: // reads, one in four of a never-written bucket
			if rng.Intn(4) == 0 {
				k = never[rng.Intn(len(never))]
			}
			if n < 10 {
				check(op, k)
				break
			}
			_, has := oracle[string(k)]
			ok, _, err := d.Exist(d.Now(), k)
			if err != nil || ok != has {
				t.Fatalf("op %d: EXIST %q = (%v, %v), oracle %v", op, k, ok, err, has)
			}
		case n < 18:
			v := val(op, 16+rng.Intn(200))
			if err := oneRead(op, "PUT", func() error { _, err := d.Store(d.Now(), k, v); return err }); err != nil {
				t.Fatalf("op %d: PUT %q: %v", op, k, err)
			}
			oracle[string(k)] = v
		default:
			_, has := oracle[string(k)]
			err := oneRead(op, "DELETE", func() error { _, err := d.Delete(d.Now(), k); return err })
			if has && err != nil || !has && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: DELETE %q = %v, oracle has=%v", op, k, err, has)
			}
			delete(oracle, string(k))
		}
	}
	for _, k := range append(live, never...) {
		check(-1, k)
	}
	if got := d.MetaReadsPerGet().Max(); got > 1 {
		t.Fatalf("a GET read %d index pages, want <= 1", got)
	}
	if st := d.IndexStats().Cache; st.Evictions == 0 || st.Misses <= st.Inserts {
		t.Fatalf("cache %+v: want evictions, and misses the cache never installed", st)
	}
	if d.Stats().GCRuns != 0 {
		t.Fatal("the run collected garbage; the geometry is meant to keep GC out of it")
	}
}
