package device

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hopscotch"
)

// TestSmallCacheChurnUnderGC overwrites a working set many times its
// device's size behind a record-table cache of two or four tables, so
// garbage collection runs all the time, and one directory doubling lands
// in the middle of it. GC looks every pair it finds up in the index, and
// with this few tables each of those lookups evicts a dirty one: if GC
// could run inside an index operation, it would evict the table that
// operation was about to use. Every key must read back as the map oracle
// says, and no GET may cost more than one index flash read.
func TestSmallCacheChurnUnderGC(t *testing.T) {
	r := core.RecordsPerTable(smallNAND().PageSize, false)
	table := int64(hopscotch.EncodedSize(r))
	seeds, overwrites := int64(3), 60000
	if testing.Short() {
		seeds, overwrites = 1, 15000
	}
	for _, tables := range []int64{2, 4} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("tables=%d/seed=%d", tables, seed), func(t *testing.T) {
				d := openSmall(t, func(c *Config) { c.CacheBudget = tables*table + table/2 })
				const keys, grown = 1500, 2200
				oracle := map[int][]byte{}
				rng := rand.New(rand.NewSource(seed))
				put := func(k int) {
					t.Helper()
					v := val(rng.Int(), 16+rng.Intn(64))
					if _, err := d.Store(d.Now(), key(k), v); err != nil {
						t.Fatalf("Store(%d) after %d GC runs: %v", k, d.Stats().GCRuns, err)
					}
					oracle[k] = v
				}
				for k := 0; k < keys; k++ {
					put(k)
				}
				dirs := d.IndexStats().DirEntries
				for i := 0; i < overwrites; i++ {
					n := keys
					if i >= overwrites/2 {
						n = grown
					}
					put(rng.Intn(n))
				}
				if d.Stats().GCRuns == 0 {
					t.Fatal("GC never ran: the test exercises nothing")
				}
				if got := d.IndexStats().DirEntries; got <= dirs {
					t.Fatalf("directory stayed at %d entries through the churn", got)
				}
				d.ResetOpStats()
				for k, want := range oracle {
					if got := mustGet(t, d, key(k)); !bytes.Equal(got, want) {
						t.Fatalf("key %d: got %d bytes, want %d", k, len(got), len(want))
					}
				}
				if got := d.MetaReadsPerGet().Max(); got > 1 {
					t.Fatalf("a GET read %d index pages, want <= 1", got)
				}
			})
		}
	}
}
