package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hopscotch"
	"repro/internal/index"
)

// TestColdIndexOracle runs the paper's regime, an index larger than the
// DRAM that caches it, against an oracle: locked commands alone, then
// with lock-free readers racing them.
func TestColdIndexOracle(t *testing.T) {
	t.Run("locked", coldIndexLocked)
	t.Run("racing", func(t *testing.T) { coldIndexRacing(t, false) })
	t.Run("racing-growth", func(t *testing.T) { coldIndexRacing(t, true) })
}

// coldIndexLocked checks the locked commands against a map oracle: 64
// directory buckets behind a cache of 8 record tables, and a seeded
// GET/EXIST/PUT/DELETE mix over keys of 48 buckets plus keys of the 16
// buckets nothing is ever written to. Every answer must match the
// oracle; no GET may cost more than one index flash read; and no PUT or
// DELETE may either, which is what breaks first if a read-only lookup
// declines to install a table and the same command's index update then
// reads the page again.
func coldIndexLocked(t *testing.T) {
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
		err := f()
		if n := d.env.reads; n > 1 {
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

// coldIndexRacing runs the cold regime with lock-free readers beside the
// locked writer, on a 4 MiB device, where garbage collection runs on
// its own. The writer runs locked GETs, EXISTs, PUTs and DELETEs. In
// the first half it also collects, every 100 operations, an index
// block that holds a live record-table page, so Relocate moves a
// bucket's page under the readers; in the second half it checkpoints
// every 400 operations and restarts after every third checkpoint. With
// growth the index starts at one bucket and doubles as keys arrive,
// each doubling starting while readers are mid-read; without, 64
// buckets stay behind a cache of 8 tables. Readers serve GETs and EXISTs through TryRetrieveOptimistic
// and TryExistOptimistic and check every answer against the key's
// version history: it must be what the key held at some instant of the
// read. Every key's versions alternate three PUTs and a DELETE, the
// writer announces a version before its command and commits it after.
// No GET, locked or not, may cost more than one index flash read, and
// some lock-free GETs must have been answered from a page image. Run
// with -race.
func coldIndexRacing(t *testing.T, growth bool) {
	const readers, ops = 3, 6000
	geo := smallNAND() // 4 MiB: both zones collect
	r := core.RecordsPerTable(geo.PageSize, false)
	table := int64(hopscotch.EncodedSize(r))
	d := openSmall(t, func(c *Config) {
		c.NAND = geo
		if growth {
			c.CacheBudget = 4 * table // D reaches 8: half the index resident
		} else {
			c.AnticipatedKeys = 64 * int64(r)
			c.CacheBudget = 8 * table
			c.DisableAutoResize = true
		}
	})
	// all are the keys readers read. The writer mutates those written
	// indexes, stores those frozen indexes once, first, and only reads
	// them after that, so their buckets' pages stay live in index blocks
	// that collection then relocates. Keys of neither are never written
	// to: with growth the last 200 keys, with 64 buckets the keys of 16
	// buckets, which never get a page.
	type keySet struct {
		idx []int
		max int
	}
	written, frozen, never := keySet{max: 480}, keySet{max: 240}, keySet{max: 160}
	if growth {
		written.max, frozen.max, never.max = 2400, 0, 200
	}
	var all [][]byte
	for i := 0; len(all) < written.max+frozen.max+never.max; i++ {
		k := key(i)
		set := &written
		switch b := d.scheme.Compute(k).Lo % 64; {
		case growth && i >= written.max, !growth && b >= 48:
			set = &never
		case !growth && b >= 32:
			set = &frozen
		}
		if len(set.idx) < set.max {
			set.idx = append(set.idx, len(all))
			all = append(all, k)
		}
	}
	readable := append(append([]int(nil), written.idx...), frozen.idx...)
	// committed[i] is key all[i]'s version once acknowledged, announced[i]
	// the version its in-flight command writes. Version 0 is "never
	// written"; every fourth version deletes.
	committed := make([]atomic.Uint64, len(all))
	announced := make([]atomic.Uint64, len(all))
	absentIn := func(lo, hi uint64) bool { return hi/4*4 >= lo }
	presentIn := func(lo, hi uint64) bool { return hi > lo || lo%4 != 0 }
	value := func(i int, v uint64, n int) []byte {
		b := val(i+int(v), 16+n)
		binary.LittleEndian.PutUint64(b, uint64(i))
		binary.LittleEndian.PutUint64(b[8:], v)
		return b
	}

	var stop atomic.Bool
	var served, refused, retried atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 0, 256)
			for !stop.Load() {
				i := rng.Intn(len(all))
				lo := committed[i].Load()
				var err error
				var got []byte
				var found bool
				exist := rng.Intn(4) == 0
				if exist {
					found, _, err = d.TryExistOptimistic(d.Now(), all[i])
				} else {
					got, _, err = d.TryRetrieveOptimistic(d.Now(), all[i], buf[:0])
				}
				hi := announced[i].Load()
				switch {
				case errors.Is(err, index.ErrNeedExclusive):
					refused.Add(1)
					continue
				case errors.Is(err, index.ErrOptimisticRetry):
					retried.Add(1)
					continue
				case errors.Is(err, ErrNotFound) && !exist:
				case err != nil:
					t.Errorf("lock-free read of %q: %v", all[i], err)
					stop.Store(true)
					return
				case !exist:
					found = true
					if id, v := binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:]); id != uint64(i) || v < lo || v > hi || v%4 == 0 {
						t.Errorf("lock-free GET %q = value %d of id %d, versions %d..%d", all[i], v, id, lo, hi)
						stop.Store(true)
						return
					}
				}
				served.Add(1)
				if found && !presentIn(lo, hi) || !found && !absentIn(lo, hi) {
					t.Errorf("lock-free read of %q (exist=%v) found=%v, versions %d..%d", all[i], exist, found, lo, hi)
					stop.Store(true)
					return
				}
			}
		}(int64(g) + 100)
	}
	// A failing writer must not leave readers logging past the test.
	defer func() { stop.Store(true); wg.Wait() }()

	// imageReads counts the GETs that read one index page while the
	// writer ran no locked GET: the lock-free ones answered from an image.
	pageGets := func() uint64 { h := d.MetaReadsPerGet(); return h.Count() - h.CountAtMost(0) }
	var imageReads, mark uint64
	rng := rand.New(rand.NewSource(33))
	checkpoints, relocations, dirs, doublings := 0, 0, d.IndexStats().DirEntries, 0
	for op := 0; op < ops && !stop.Load(); op++ {
		lockedGets := !growth && op/200%2 == 0
		if op%200 == 0 {
			mark = pageGets()
		}
		i := readable[rng.Intn(len(readable))]
		n := rng.Intn(20)
		switch {
		case op < len(frozen.idx):
			i, n = frozen.idx[op], 20
		case n >= 6:
			i = written.idx[rng.Intn(len(written.idx))]
		}
		k := all[i]
		switch {
		case n < 4 && lockedGets:
			want := committed[i].Load()
			v, _, err := d.Retrieve(d.Now(), k)
			if want%4 != 0 && (err != nil || binary.LittleEndian.Uint64(v[8:]) != want) || want%4 == 0 && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: locked GET %q = (%d bytes, %v), committed version %d", op, k, len(v), err, want)
			}
		case n < 6:
			want := committed[i].Load()
			ok, _, err := d.Exist(d.Now(), k)
			if err != nil || ok != (want%4 != 0) {
				t.Fatalf("op %d: locked EXIST %q = (%v, %v), committed version %d", op, k, ok, err, want)
			}
		default:
			v := committed[i].Load() + 1
			announced[i].Store(v)
			var err error
			if v%4 == 0 {
				_, err = d.Delete(d.Now(), k)
			} else {
				_, err = d.Store(d.Now(), k, value(i, v, rng.Intn(200)))
			}
			if err != nil {
				t.Fatalf("op %d: version %d of %q: %v", op, v, k, err)
			}
			committed[i].Store(v)
		}
		if op < ops/2 && op%100 == 99 {
			// Collect an index block holding a live record-table page:
			// Relocate moves the page under the readers. (The first half
			// takes no checkpoint, whose pages no collection may move.)
			for _, p := range d.idx.(*core.RHIK).PersistentPages() {
				if b := d.flash.BlockOf(p); !slices.Contains(d.activeBlocks(), b) {
					if err := d.collectBlock(b); err != nil {
						t.Fatalf("op %d: collecting index block %d: %v", op, b, err)
					}
					relocations++
					break
				}
			}
		}
		if op >= ops/2 && op%400 == 399 {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("op %d: checkpoint: %v", op, err)
			}
			if checkpoints++; checkpoints%3 == 0 {
				if err := d.Restart(); err != nil {
					t.Fatalf("op %d: restart: %v", op, err)
				}
			}
		}
		if now := d.IndexStats().DirEntries; now > dirs {
			dirs, doublings = now, doublings+1
		}
		if !lockedGets && op%200 == 199 {
			imageReads += pageGets() - mark
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, k := range all {
		want := committed[i].Load()
		v, _, err := d.Retrieve(d.Now(), k)
		if want%4 != 0 && (err != nil || binary.LittleEndian.Uint64(v[8:]) != want) || want%4 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("after the race: GET %q = (%d bytes, %v), committed version %d", k, len(v), err, want)
		}
	}
	quiesced := coldIndexQuiesced(t, d, all, readable, committed, readers)
	imageReads += quiesced
	t.Logf("lock-free reads: %d served (%d GETs from a page image while no locked GET ran, %d of them quiesced), %d refused, %d retried; %d GC runs, %d of them moving live index pages, %d doublings to D=%d",
		served.Load(), imageReads, quiesced, refused.Load(), retried.Load(), d.Stats().GCRuns, relocations, doublings, dirs)
	switch {
	case d.MetaReadsPerGet().Max() > 1:
		t.Fatalf("a GET read %d index pages, want <= 1", d.MetaReadsPerGet().Max())
	case imageReads == 0:
		t.Fatal("no lock-free GET was answered from a page image")
	case d.Stats().GCRuns <= int64(relocations):
		t.Fatal("the run never collected garbage on its own")
	case !growth && relocations == 0:
		t.Fatal("no index block holding a live page was collected")
	case growth && doublings < 3:
		t.Fatalf("the index doubled %d times, want >= 3", doublings)
	}
}

// coldIndexQuiesced parks the writer where every lock-free GET of a
// bucket left out of the cache must be answered from its page image,
// and runs readers that GET exactly those buckets. A checkpoint puts
// every pair and table on flash, so every cached table is clean. Locked
// GETs of one key per bucket then sort the buckets into resident ones
// (a hit, or an install while the cache had room) and cold ones (a miss
// that read the page and installed nothing: the cache is full and its
// victim clean). A last locked GET of a cold bucket publishes the
// read-miss rule after every hit the sorting made, and the readers,
// which touch only cold buckets, set no reference bit that could
// overturn it. No reader may be refused, and each must read the
// committed version. It returns how many GETs read one index page.
func coldIndexQuiesced(t *testing.T, d *Device, all [][]byte, readable []int, committed []atomic.Uint64, readers int) uint64 {
	t.Helper()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("quiesced: checkpoint: %v", err)
	}
	pageGets := func() uint64 { h := d.MetaReadsPerGet(); return h.Count() - h.CountAtMost(0) }
	lockedGet := func(i int) {
		if _, _, err := d.Retrieve(d.Now(), all[i]); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("quiesced: locked GET %q: %v", all[i], err)
		}
	}
	mask := uint64(d.IndexStats().DirEntries - 1)
	bucket := func(i int) uint64 { return d.scheme.Compute(all[i]).Lo & mask }
	seen, cold := map[uint64]bool{}, map[uint64]bool{}
	last := -1
	for _, i := range readable {
		if b := bucket(i); !seen[b] {
			seen[b] = true
			before, reads := d.IndexStats().Cache, pageGets()
			lockedGet(i)
			after := d.IndexStats().Cache
			if after.Inserts == before.Inserts && after.Hits == before.Hits && pageGets() > reads {
				cold[b], last = true, i
			}
		}
	}
	if last < 0 {
		t.Fatalf("quiesced: none of %d buckets is cold", len(seen))
	}
	lockedGet(last)
	var keys []int
	for _, i := range readable {
		if cold[bucket(i)] {
			keys = append(keys, i)
		}
	}

	mark := pageGets()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 256)
			for j := g; j < len(keys); j += readers {
				i := keys[j]
				want := committed[i].Load()
				got, _, err := d.TryRetrieveOptimistic(d.Now(), all[i], buf[:0])
				switch {
				case want%4 == 0 && errors.Is(err, ErrNotFound):
				case want%4 != 0 && err == nil && binary.LittleEndian.Uint64(got[8:]) == want:
				default:
					t.Errorf("quiesced: lock-free GET %q = (%d bytes, %v), committed version %d", all[i], len(got), err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return pageGets() - mark
}
