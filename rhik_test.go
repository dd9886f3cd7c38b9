package rhik_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	rhik "repro"
	"repro/internal/core"
)

func openDB(t *testing.T, opts rhik.Options) *rhik.DB {
	t.Helper()
	if opts.Capacity == 0 {
		opts.Capacity = 64 << 20
	}
	db, err := rhik.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicRoundTrip(t *testing.T) {
	db := openDB(t, rhik.Options{})
	if err := db.Store([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Retrieve([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Retrieve = (%q,%v)", v, err)
	}
	ok, err := db.Exist([]byte("hello"))
	if err != nil || !ok {
		t.Fatalf("Exist = (%v,%v)", ok, err)
	}
	if err := db.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Retrieve([]byte("hello")); !errors.Is(err, rhik.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Store([]byte("x"), nil); !errors.Is(err, rhik.ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

func TestPublicStatsAndElapsed(t *testing.T) {
	// Shards: 1 — the resize expectation below depends on all keys
	// landing in one device's directory.
	db := openDB(t, rhik.Options{Shards: 1})
	const n = 5000 // past 80% of one 1927-record table: forces re-configuration
	for i := 0; i < n; i++ {
		if err := db.Store([]byte(fmt.Sprintf("key-%08d", i)), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.Stores != n || s.IndexRecords != n {
		t.Fatalf("stats = %+v", s)
	}
	if s.IndexScheme != "rhik" {
		t.Fatalf("scheme = %s", s.IndexScheme)
	}
	if db.Elapsed() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if s.StoreP50 <= 0 {
		t.Fatal("no store latency percentile")
	}
	if s.Resizes == 0 || len(db.ResizeEvents()) == 0 {
		t.Fatal("expected resizes growing from minimal index")
	}
}

func TestPublicMultiLevelOption(t *testing.T) {
	db := openDB(t, rhik.Options{Index: rhik.MultiLevel})
	if err := db.Store([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if db.Stats().IndexScheme != "mlhash" {
		t.Fatal("wrong scheme")
	}
}

func TestPublicLSMOption(t *testing.T) {
	db := openDB(t, rhik.Options{Index: rhik.LSM})
	if err := db.Store([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Retrieve([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("(%q,%v)", v, err)
	}
	if db.Stats().IndexScheme != "lsm" {
		t.Fatal("wrong scheme")
	}
}

func TestPublicBatchAsyncFasterThanSync(t *testing.T) {
	mkKeys := func() [][]byte {
		keys := make([][]byte, 300)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		}
		return keys
	}
	val := make([]byte, 4096)

	dbSync := openDB(t, rhik.Options{})
	for _, k := range mkKeys() {
		if err := dbSync.Store(k, val); err != nil {
			t.Fatal(err)
		}
	}
	syncElapsed := dbSync.Elapsed()

	dbAsync := openDB(t, rhik.Options{})
	var b rhik.Batch
	for _, k := range mkKeys() {
		b.Store(k, val)
	}
	res := dbAsync.Apply(&b, 0)
	if res.Failed() != 0 {
		t.Fatalf("batch failures: %d", res.Failed())
	}
	if res.Elapsed >= syncElapsed {
		t.Fatalf("async batch (%v) not faster than sync (%v)", res.Elapsed, syncElapsed)
	}
}

func TestPublicBatchRetrieve(t *testing.T) {
	db := openDB(t, rhik.Options{})
	var w rhik.Batch
	for i := 0; i < 10; i++ {
		w.Store([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if res := db.Apply(&w, 0); res.Failed() != 0 {
		t.Fatal("writes failed")
	}
	var r rhik.Batch
	for i := 0; i < 10; i++ {
		r.Retrieve([]byte(fmt.Sprintf("k%d", i)))
	}
	r.Retrieve([]byte("missing"))
	res := db.Apply(&r, 0)
	for i := 0; i < 10; i++ {
		if string(res.Values[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("value %d = %q", i, res.Values[i])
		}
	}
	if !errors.Is(res.Errs[10], rhik.ErrNotFound) || res.Failed() != 1 {
		t.Fatalf("missing-key result: %v", res.Errs[10])
	}
}

// TestIteratorModeGroupClumping regression-tests collision-driven
// re-configuration. In iterator mode every key sharing a 14-byte prefix
// lands on the same directory bucket, so bucket loads grow in
// whole-group clumps (256 keys here) and a single bucket can exhaust its
// hopscotch neighborhood while global occupancy is still below the
// resize trigger. Before the fix this store sequence aborted with a
// spurious "uncorrectable signature collision" around key 6994.
func TestIteratorModeGroupClumping(t *testing.T) {
	db := openDB(t, rhik.Options{
		Capacity:          512 << 20,
		IteratorPrefixLen: 14,
	})
	val := bytes.Repeat([]byte{'v'}, 64)
	for id := uint64(0); id < 10_000; id++ {
		key := []byte(fmt.Sprintf("k%015x", id))
		if err := db.Store(key, val); err != nil {
			t.Fatalf("store %d: %v", id, err)
		}
	}
	// Every group must remain fully scannable after the splits.
	entries, err := db.Iterate([]byte(fmt.Sprintf("k%015x", uint64(6994))[:14]))
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	if len(entries) != 256 {
		t.Fatalf("scan group: %d entries, want 256", len(entries))
	}
}

// TestIteratorModeOversizeGroup pins the failure mode collision-driven
// re-configuration must NOT try to fix: a single prefix group larger
// than one record table. Bucket selection depends only on prefix-hash
// bits, so no amount of directory doubling separates these keys; the
// store must fail fast with ErrCollision (bounded resizes, bounded
// directory) instead of doubling the directory on every failed insert.
func TestIteratorModeOversizeGroup(t *testing.T) {
	db := openDB(t, rhik.Options{Capacity: 256 << 20, IteratorPrefixLen: 14})
	// All 4000 keys share the 14-byte prefix "key00000000000": a table
	// holds ~1927 records, so the group cannot fit.
	var firstErr error
	stored := 0
	for i := 0; i < 4000; i++ {
		err := db.Store([]byte(fmt.Sprintf("key%016d", i)), []byte("v"))
		if err != nil {
			if !errors.Is(err, rhik.ErrCollision) {
				t.Fatalf("store %d: %v", i, err)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		stored++
	}
	if firstErr == nil {
		t.Fatal("oversize prefix group fully stored; expected ErrCollision")
	}
	if stored < 1000 {
		t.Fatalf("only %d stores succeeded before overflow", stored)
	}
	if d := db.Stats().DirectoryEntries; d > 1024 {
		t.Fatalf("directory exploded to %d entries on an inseparable group", d)
	}
}

func TestPublicIterator(t *testing.T) {
	db := openDB(t, rhik.Options{IteratorPrefixLen: 4})
	for i := 0; i < 5; i++ {
		db.Store([]byte(fmt.Sprintf("usr:%d", i)), []byte{byte(i)})
		db.Store([]byte(fmt.Sprintf("img:%d", i)), []byte{byte(i)})
	}
	entries, err := db.Iterate([]byte("usr:"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("got %d entries", len(entries))
	}
	for _, e := range entries {
		if !bytes.HasPrefix(e.Key, []byte("usr:")) {
			t.Fatalf("stray key %q", e.Key)
		}
	}
	// A prefix shorter than IteratorPrefixLen names no key group.
	if _, err := db.Iterate([]byte("usr")); !errors.Is(err, rhik.ErrPrefixTooShort) {
		t.Fatalf("short prefix: err = %v", err)
	}
	// Without iterator mode, Iterate must refuse.
	plain := openDB(t, rhik.Options{})
	if _, err := plain.Iterate([]byte("x")); !errors.Is(err, rhik.ErrNoIterator) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicCheckpointRestart(t *testing.T) {
	db := openDB(t, rhik.Options{})
	for i := 0; i < 200; i++ {
		db.Store([]byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := db.Retrieve([]byte(fmt.Sprintf("key-%08d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d after restart: (%q,%v)", i, v, err)
		}
	}
	if db.Stats().Recoveries != 1 {
		t.Fatal("recovery not counted")
	}
}

func TestPublic128BitSignatures(t *testing.T) {
	db := openDB(t, rhik.Options{SignatureBits: 128})
	if err := db.Store([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Retrieve([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("(%q,%v)", v, err)
	}
}

func TestPublicBadOptions(t *testing.T) {
	if _, err := rhik.Open(rhik.Options{Index: IndexSchemeBogus}); err == nil {
		t.Fatal("bogus index scheme accepted")
	}
	if _, err := rhik.Open(rhik.Options{SignatureBits: 17}); err == nil {
		t.Fatal("bad signature bits accepted")
	}
}

// IndexSchemeBogus is an out-of-range scheme for option validation tests.
const IndexSchemeBogus rhik.IndexScheme = 99

// FuzzStoreRetrieve checks the store→retrieve→delete lifecycle for
// arbitrary keys and values on a sharded DB: anything the device
// accepts must come back byte-identical, and anything it rejects must
// be rejected for a defensible size reason. Seed corpus (f.Add plus
// testdata/fuzz/FuzzStoreRetrieve) covers empty and max-size keys and
// values and keys crafted to collide in the low signature bits.
func FuzzStoreRetrieve(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"))
	f.Add([]byte(""), []byte("empty key must be rejected"))
	f.Add([]byte("k"), []byte{})
	f.Add(bytes.Repeat([]byte{0xab}, 64<<10), []byte("oversized key"))
	f.Add([]byte("big-value"), bytes.Repeat([]byte{7}, 128<<10))
	f.Add([]byte{0x00, 0xff, 0x00}, []byte{0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, key, value []byte) {
		db, err := rhik.Open(rhik.Options{Capacity: 64 << 20, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()

		err = db.Store(key, value)
		switch {
		case errors.Is(err, rhik.ErrKeyTooLarge):
			if len(key) != 0 && len(key) <= 1024 {
				t.Fatalf("key of %d bytes rejected as too large", len(key))
			}
			return
		case errors.Is(err, rhik.ErrValueTooLarge):
			if len(value) <= 1<<20 {
				t.Fatalf("value of %d bytes rejected as too large", len(value))
			}
			return
		case err != nil:
			t.Fatalf("store (%d-byte key, %d-byte value): %v", len(key), len(value), err)
		}

		got, err := db.Retrieve(key)
		if err != nil {
			t.Fatalf("retrieve after store: %v", err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("retrieve returned %d bytes, stored %d", len(got), len(value))
		}
		if ok, err := db.Exist(key); err != nil || !ok {
			t.Fatalf("exist after store = (%v, %v)", ok, err)
		}
		if err := db.Delete(key); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := db.Retrieve(key); !errors.Is(err, rhik.ErrNotFound) {
			t.Fatalf("retrieve after delete: %v", err)
		}
		if ok, err := db.Exist(key); err != nil || ok {
			t.Fatalf("exist after delete = (%v, %v)", ok, err)
		}
	})
}

// TestDefaultGrowthMigratesIncrementally: with default options the index
// doubles without halting the submission queue for the migration. The
// halt is the directory swap alone, cheaper than splitting one bucket,
// and every key stays readable while buckets are still migrating.
func TestDefaultGrowthMigratesIncrementally(t *testing.T) {
	db := openDB(t, rhik.Options{Shards: 1})
	val := []byte("value")
	n := 0
	for st := db.Stats(); st.DirectoryEntries < 64 || st.DirectoryEntries == 1<<st.Resizes; st = db.Stats() {
		if err := db.Store([]byte(fmt.Sprintf("key-%08d", n)), val); err != nil {
			t.Fatal(err)
		}
		if n++; n > 1_000_000 {
			t.Fatalf("no migration in flight after %d stores", n)
		}
	}
	// D = 2^(completed doublings + the one in flight): mid-migration.
	for i := 0; i < n; i++ {
		got, err := db.Retrieve([]byte(fmt.Sprintf("key-%08d", i)))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("key %d mid-migration: %q, %v", i, got, err)
		}
	}
	pageSize := db.Device().Geometry().PageSize
	oneSplit := time.Duration(core.RecordsPerTable(pageSize, false)) * time.Duration(core.DefaultMigrateCPUPerRecord)
	if halt := db.Stats().ResizeHaltTotal; halt >= oneSplit {
		t.Fatalf("%d doublings halted the queue for %v, one bucket split costs %v", db.Stats().Resizes, halt, oneSplit)
	}
}
