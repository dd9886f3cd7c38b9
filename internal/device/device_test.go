package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
)

// smallNAND is a compact geometry for fast tests: 2 MiB, 8 KiB pages.
func smallNAND() *nand.Config {
	return &nand.Config{
		Channels: 2, DiesPerChan: 2, BlocksPerDie: 16, PagesPerBlock: 8,
		PageSize: 8 * 1024, SpareSize: 256,
		ReadLatency: 60 * sim.Microsecond, ProgramLatency: 700 * sim.Microsecond,
		EraseLatency: 3500 * sim.Microsecond, ChannelMBps: 800,
	}
}

func openSmall(t *testing.T, mut func(*Config)) *Device {
	t.Helper()
	cfg := Config{NAND: smallNAND()}
	if mut != nil {
		mut(&cfg)
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

func mustStore(t *testing.T, d *Device, k, v []byte) sim.Time {
	t.Helper()
	done, err := d.Store(d.Now(), k, v)
	if err != nil {
		t.Fatalf("Store(%q): %v", k, err)
	}
	return done
}

func mustGet(t *testing.T, d *Device, k []byte) []byte {
	t.Helper()
	v, _, err := d.Retrieve(d.Now(), k)
	if err != nil {
		t.Fatalf("Retrieve(%q): %v", k, err)
	}
	return v
}

func TestStoreRetrieveRoundTrip(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), val(1, 100))
	got := mustGet(t, d, key(1))
	if !bytes.Equal(got, val(1, 100)) {
		t.Fatal("value mismatch")
	}
	if d.Stats().Stores != 1 || d.Stats().Retrieves != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestRetrieveMissing(t *testing.T) {
	d := openSmall(t, nil)
	if _, _, err := d.Retrieve(0, key(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateReplacesValue(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), []byte("v1"))
	mustStore(t, d, key(1), []byte("v2-longer"))
	if got := mustGet(t, d, key(1)); string(got) != "v2-longer" {
		t.Fatalf("got %q", got)
	}
	if n := d.Index().Len(); n != 1 {
		t.Fatalf("index Len = %d", n)
	}
}

func TestDelete(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), []byte("v"))
	if _, err := d.Delete(d.Now(), key(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Retrieve(d.Now(), key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("retrieve after delete: %v", err)
	}
	if _, err := d.Delete(d.Now(), key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Re-insert after delete.
	mustStore(t, d, key(1), []byte("v2"))
	if got := mustGet(t, d, key(1)); string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestExist(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), []byte("v"))
	ok, _, err := d.Exist(d.Now(), key(1))
	if err != nil || !ok {
		t.Fatalf("Exist = (%v,%v)", ok, err)
	}
	ok, _, err = d.Exist(d.Now(), key(2))
	if err != nil || ok {
		t.Fatalf("Exist(absent) = (%v,%v)", ok, err)
	}
}

func TestReadYourBufferedWrite(t *testing.T) {
	// A freshly stored small pair sits in the open page buffer; reads
	// must still see it.
	d := openSmall(t, nil)
	mustStore(t, d, key(1), []byte("buffered"))
	if d.FlashStats().Programs != 0 {
		t.Fatal("tiny store should still be buffered")
	}
	if got := mustGet(t, d, key(1)); string(got) != "buffered" {
		t.Fatalf("got %q", got)
	}
}

func TestExtentValueRoundTrip(t *testing.T) {
	d := openSmall(t, nil)
	big := val(7, 3*8*1024+123) // spans 4+ pages
	mustStore(t, d, key(7), big)
	got := mustGet(t, d, key(7))
	if !bytes.Equal(got, big) {
		t.Fatal("extent value mismatch")
	}
}

func TestValueTooLarge(t *testing.T) {
	d := openSmall(t, nil)
	// Block = 8 pages × 8 KiB; anything beyond one block must fail.
	huge := make([]byte, 9*8*1024)
	if _, err := d.Store(0, key(1), huge); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeyValidation(t *testing.T) {
	d := openSmall(t, nil)
	if _, err := d.Store(0, nil, []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := d.Store(0, make([]byte, 60000), []byte("v")); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("huge key: %v", err)
	}
}

func TestManyKeysWithResizes(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.HaltResize = true })
	const n = 3000
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 24))
	}
	if len(d.ResizeEvents()) == 0 {
		t.Fatal("no resizes while growing from a minimal index")
	}
	if d.Stats().ResizeHalt <= 0 {
		t.Fatal("resize halt time not accounted")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		k := rng.Intn(n)
		if got := mustGet(t, d, key(k)); !bytes.Equal(got, val(k, 24)) {
			t.Fatalf("key %d mismatch after resizes", k)
		}
	}
}

func TestGCReclaimsSpaceUnderChurn(t *testing.T) {
	// Overwrite a small working set many times: total writes far exceed
	// capacity, so GC must reclaim stale pairs for the device to keep
	// accepting writes.
	d := openSmall(t, nil)
	const keys = 40
	valSize := 2048
	rounds := 40 // 40×40×2 KiB ≈ 3.2 MiB through a 2 MiB device
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			if _, err := d.Store(d.Now(), key(i), val(r, valSize)); err != nil {
				t.Fatalf("round %d key %d: %v (GC failed to reclaim?)", r, i, err)
			}
		}
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("GC never ran despite churn beyond capacity")
	}
	for i := 0; i < keys; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(rounds-1, valSize)) {
			t.Fatalf("key %d lost or stale after GC", i)
		}
	}
}

func TestGCPreservesExtents(t *testing.T) {
	d := openSmall(t, nil)
	big := val(3, 20*1024) // 3-page extent
	mustStore(t, d, key(100), big)
	// Churn small keys to force GC cycles around the extent.
	for r := 0; r < 60; r++ {
		for i := 0; i < 20; i++ {
			if _, err := d.Store(d.Now(), key(i), val(r, 2048)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := mustGet(t, d, key(100)); !bytes.Equal(got, big) {
		t.Fatal("extent corrupted by GC churn")
	}
}

func TestDeviceFillsToCapacityThenErrors(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.GCLowWater = 2 })
	var err error
	stored := 0
	for i := 0; i < 100000; i++ {
		_, err = d.Store(d.Now(), key(i), val(i, 4096))
		if err != nil {
			break
		}
		stored++
	}
	if !errors.Is(err, ErrDeviceFull) {
		t.Fatalf("expected ErrDeviceFull, got %v after %d stores", err, stored)
	}
	// Utilization should be substantial before failing (log + GC overheads
	// and zone headroom allowed).
	bytesStored := int64(stored) * 4096
	if frac := float64(bytesStored) / float64(d.Geometry().Capacity()); frac < 0.4 {
		t.Fatalf("device failed at %.0f%% utilization (%d stores)", frac*100, stored)
	}
	// Previously stored data must remain readable.
	for i := 0; i < stored; i += 50 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 4096)) {
			t.Fatalf("key %d unreadable on full device", i)
		}
	}
}

func TestSyncVsAsyncThroughput(t *testing.T) {
	// Async submission must beat sync wall-clock: die parallelism.
	run := func(async bool) sim.Duration {
		d := openSmall(t, nil)
		const n = 200
		v := val(1, 4096)
		var submit sim.Time
		var last sim.Time
		for i := 0; i < n; i++ {
			done, err := d.Store(submit, key(i), v)
			if err != nil {
				t.Fatal(err)
			}
			if done > last {
				last = done
			}
			if async {
				submit = submit.Add(2 * sim.Microsecond)
			} else {
				submit = done
			}
		}
		end := d.Drain()
		if last > end {
			end = last
		}
		return end.Sub(0)
	}
	syncT := run(false)
	asyncT := run(true)
	if asyncT >= syncT {
		t.Fatalf("async (%v) not faster than sync (%v)", asyncT, syncT)
	}
}

func TestMultiLevelIndexDevice(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.Index = IndexMultiLevel })
	const n = 500
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	for i := 0; i < n; i += 7 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("key %d mismatch on mlhash device", i)
		}
	}
	if d.ResizeEvents() != nil {
		t.Fatal("mlhash reported resize events")
	}
}

func TestCheckpointAndRestartRecoversAll(t *testing.T) {
	d := openSmall(t, nil)
	const n = 400
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	for i := 0; i < 50; i++ { // deletes must survive too
		if _, err := d.Delete(d.Now(), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Recoveries != 1 {
		t.Fatal("recovery not counted")
	}
	for i := 0; i < 50; i++ {
		if _, _, err := d.Retrieve(d.Now(), key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d resurrected: %v", i, err)
		}
	}
	for i := 50; i < n; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("key %d lost after restart", i)
		}
	}
}

func TestRestartReplaysPostCheckpointLog(t *testing.T) {
	d := openSmall(t, nil)
	for i := 0; i < 100; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity: new keys, updates, deletes.
	for i := 100; i < 150; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	for i := 0; i < 20; i++ {
		mustStore(t, d, key(i), val(i+1000, 64)) // updates
	}
	if _, err := d.Delete(d.Now(), key(99)); err != nil {
		t.Fatal(err)
	}
	// Programmed-but-not-checkpointed state must survive; flush buffers
	// to flash (simulating enough traffic) without checkpointing.
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i+1000, 64)) {
			t.Fatalf("update of key %d lost in replay", i)
		}
	}
	for i := 100; i < 150; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("post-checkpoint key %d lost", i)
		}
	}
	if _, _, err := d.Retrieve(d.Now(), key(99)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone for key 99 not replayed: %v", err)
	}
	// Device must remain writable after recovery.
	mustStore(t, d, key(9999), []byte("post-recovery"))
	if got := mustGet(t, d, key(9999)); string(got) != "post-recovery" {
		t.Fatal("store after recovery failed")
	}
}

func TestRestartWithoutCheckpoint(t *testing.T) {
	// No checkpoint ever taken: full log replay rebuilds everything that
	// reached flash.
	d := openSmall(t, nil)
	for i := 0; i < 200; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("key %d lost in checkpoint-free recovery", i)
		}
	}
}

func TestRestartLosesOnlyBufferedWrites(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), val(1, 64))
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	mustStore(t, d, key(2), val(2, 64)) // stays in the open page buffer
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, d, key(1)); !bytes.Equal(got, val(1, 64)) {
		t.Fatal("flushed write lost")
	}
	if _, _, err := d.Retrieve(d.Now(), key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("buffered write should be lost on power cut, got %v", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.CheckpointEveryOps = 50 })
	for i := 0; i < 120; i++ {
		mustStore(t, d, key(i), val(i, 32))
	}
	if d.Stats().Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2", d.Stats().Checkpoints)
	}
}

func TestIteratePrefix(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.SigScheme = index.SigScheme{Bits: 64, PrefixLen: 5}
	})
	for i := 0; i < 20; i++ {
		mustStore(t, d, []byte(fmt.Sprintf("user:%04d", i)), val(i, 16))
	}
	for i := 0; i < 20; i++ {
		mustStore(t, d, []byte(fmt.Sprintf("post:%04d", i)), val(i, 16))
	}
	entries, _, err := d.Iterate(d.Now(), []byte("user:"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Fatalf("Iterate found %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("user:%04d", i)
		if string(e.Key) != want {
			t.Fatalf("entry %d = %q, want %q (sorted)", i, e.Key, want)
		}
		if !bytes.Equal(e.Value, val(i, 16)) {
			t.Fatalf("entry %d value mismatch", i)
		}
	}
}

func TestIterateRequiresPrefixScheme(t *testing.T) {
	d := openSmall(t, nil)
	if _, _, err := d.Iterate(0, []byte("x"), false); !errors.Is(err, ErrNoIterator) {
		t.Fatalf("err = %v", err)
	}
}

func TestMetaReadsPerOpBounded(t *testing.T) {
	// RHIK's guarantee observed end-to-end: with a cold cache, index
	// flash reads per op never exceed 1.
	d := openSmall(t, func(c *Config) { c.CacheBudget = 1 })
	const n = 800
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 32))
	}
	d.ResetOpStats()
	for i := 0; i < n; i += 3 {
		mustGet(t, d, key(i))
	}
	if max := d.MetaReadsPerOp().Max(); max > 1 {
		t.Fatalf("max index flash reads per op = %d, want <= 1", max)
	}
}

func TestMultiLevelMetaReadsExceedOne(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.Index = IndexMultiLevel
		c.CacheBudget = 1
		c.MLHash.Levels = 4
		c.MLHash.Level0Pages = 1
	})
	// Level 0 holds ~630 slots (8 KiB / 13 B); 3000 keys overflow into
	// deeper levels so lookups genuinely cascade.
	const n = 3000
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 32))
	}
	d.ResetOpStats()
	for i := 0; i < n; i += 3 {
		mustGet(t, d, key(i))
	}
	if max := d.MetaReadsPerOp().Max(); max < 2 {
		t.Fatalf("multi-level max reads per op = %d, want >= 2", max)
	}
}

func TestCloseRejectsFurtherOps(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), []byte("v"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Store(0, key(2), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("store after close: %v", err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestLatencyHistogramspopulated(t *testing.T) {
	d := openSmall(t, nil)
	for i := 0; i < 50; i++ {
		mustStore(t, d, key(i), val(i, 64))
		mustGet(t, d, key(i))
	}
	if d.StoreLatency().Count() != 50 || d.RetrieveLatency().Count() != 50 {
		t.Fatal("latency histograms not populated")
	}
	if d.RetrieveLatency().Mean() <= 0 {
		t.Fatal("zero retrieve latency")
	}
}

func TestWearAccumulates(t *testing.T) {
	d := openSmall(t, nil)
	for r := 0; r < 50; r++ {
		for i := 0; i < 30; i++ {
			if _, err := d.Store(d.Now(), key(i), val(r, 2048)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d.FlashStats().Erases == 0 {
		t.Fatal("no erases under churn")
	}
}

func TestLSMIndexDevice(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.Index = IndexLSM })
	const n = 600
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	for i := 0; i < n; i += 5 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("key %d mismatch on lsm device", i)
		}
	}
	if _, err := d.Delete(d.Now(), key(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Retrieve(d.Now(), key(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key on lsm device: %v", err)
	}
	if d.Index().Name() != "lsm" {
		t.Fatal("wrong index name")
	}
}

func TestLSMDeviceRecoveryViaReplay(t *testing.T) {
	// The LSM index has no Checkpointer: recovery falls back to a full
	// log replay and must still restore every pair.
	d := openSmall(t, func(c *Config) { c.Index = IndexLSM })
	for i := 0; i < 200; i++ {
		mustStore(t, d, key(i), val(i, 64))
	}
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 64)) {
			t.Fatalf("key %d lost in lsm recovery", i)
		}
	}
}

func TestLSMDeviceGCChurn(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.Index = IndexLSM })
	const rounds = 70 // ~4.1 MiB of updates through a 4 MiB device
	for r := 0; r < rounds; r++ {
		for i := 0; i < 30; i++ {
			if _, err := d.Store(d.Now(), key(i), val(r, 2048)); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("no GC under churn")
	}
	for i := 0; i < 30; i++ {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(rounds-1, 2048)) {
			t.Fatalf("key %d stale after GC on lsm device", i)
		}
	}
}

func TestDisableAutoResizeKeepsIndexFixed(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.DisableAutoResize = true })
	var collided bool
	for i := 0; i < 4000; i++ {
		if _, err := d.Store(d.Now(), key(i), val(i, 16)); err != nil {
			if errors.Is(err, index.ErrCollision) {
				collided = true
				break
			}
			t.Fatal(err)
		}
	}
	if len(d.ResizeEvents()) != 0 {
		t.Fatal("index resized despite DisableAutoResize")
	}
	if !collided {
		t.Fatal("fixed single-table index never filled")
	}
}

func TestWide128SignatureDevice(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.SigScheme = index.SigScheme{Bits: 128}
	})
	for i := 0; i < 300; i++ {
		mustStore(t, d, key(i), val(i, 32))
	}
	for i := 0; i < 300; i += 11 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 32)) {
			t.Fatalf("key %d mismatch with 128-bit signatures", i)
		}
	}
}

func TestCheckpointPagesSurviveIndexZoneGC(t *testing.T) {
	// Heavy index churn forces index-zone GC cycles that must relocate
	// live checkpoint pages without losing the recovery root.
	d := openSmall(t, func(c *Config) {
		c.CacheBudget = 1 // every dirty table writes through: index churn
		c.CheckpointEveryOps = 200
	})
	const n = 1500
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 16))
	}
	if d.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints happened")
	}
	// Flush the volatile page buffer (its loss on power cut is the
	// documented ack window); everything programmed must survive.
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 16)) {
			t.Fatalf("key %d lost after churn + recovery", i)
		}
	}
	// A second crash before any further checkpoint must find the same
	// recovery root intact (the pinned-pages invariant).
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 89 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 16)) {
			t.Fatalf("key %d lost after double crash", i)
		}
	}
}

func TestIndexZoneGCReadsOnlyValidPages(t *testing.T) {
	// With a 1-byte cache every dirty table writes through, so sealed
	// index-zone blocks fill with superseded pages. Collecting one must
	// not pay a flash read per stale page just to look at its spare.
	d := openSmall(t, func(c *Config) { c.CacheBudget = 1 })
	const keys, stores = 1500, 2000
	for i := 0; i < stores; i++ {
		mustStore(t, d, key(i%keys), val(i, 16))
	}
	geo := d.flash.Config()
	sealedStale, sealedLive := 0, 0
	for b := nand.BlockID(0); int(b) < geo.TotalBlocks(); b++ {
		if !d.mgr.InUse(b) || d.mgr.Zone(b) != ftl.ZoneIndex || (d.idxBlockOpen && b == d.idxBlock) {
			continue
		}
		valid := 0
		for pi := 0; pi < d.flash.ProgrammedPages(b); pi++ {
			if _, ok := d.idxPageSize[d.flash.PPAOf(b, pi)]; ok {
				valid++
			}
		}
		before := d.flash.Stats().Reads
		if err := d.collectIndex(b); err != nil {
			t.Fatal(err)
		}
		// One read for a valid page's spare, one for Relocate's page-in.
		if got := d.flash.Stats().Reads - before; got != int64(2*valid) {
			t.Fatalf("block %d: %d flash reads collecting %d valid of %d pages, want %d",
				b, got, valid, d.flash.ProgrammedPages(b), 2*valid)
		}
		if valid == 0 {
			sealedStale++
		} else {
			sealedLive++
		}
	}
	if sealedStale == 0 || sealedLive == 0 {
		t.Fatalf("churn left %d fully stale and %d partly live sealed index blocks; want both", sealedStale, sealedLive)
	}
	for i := stores - keys; i < stores; i += 7 {
		if got := mustGet(t, d, key(i%keys)); !bytes.Equal(got, val(i, 16)) {
			t.Fatalf("key %d wrong after index-zone collection", i%keys)
		}
	}
}

func TestIncrementalResizeDevice(t *testing.T) {
	d := openSmall(t, nil)
	const n = 3000
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 16))
	}
	// Growth happened without any long queue halt being recorded.
	if d.Stats().ResizeHalt > sim.Millisecond {
		t.Fatalf("incremental mode recorded %v of halt", d.Stats().ResizeHalt)
	}
	for i := 0; i < n; i += 53 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 16)) {
			t.Fatalf("key %d mismatch under incremental growth", i)
		}
	}
	// Checkpoint + restart drains the migration and recovers fully.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 53 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 16)) {
			t.Fatalf("key %d lost after incremental growth + recovery", i)
		}
	}
}

// migrating reports whether r has a migration in flight.
func migrating(r *core.RHIK) bool {
	left, _ := r.PendingSplits()
	return left > 0
}

// withMigrateStep replaces a fresh device's RHIK with one that splits
// step buckets in the background per index operation.
func withMigrateStep(t *testing.T, d *Device, step int) *core.RHIK {
	t.Helper()
	r, err := core.New(core.Config{
		PageSize:           d.Geometry().PageSize,
		SigScheme:          d.scheme,
		CacheBudget:        d.cfg.CacheBudget,
		MigrateStepBuckets: step,
		Reclaim:            d.reclaim,
	}, d.env)
	if err != nil {
		t.Fatal(err)
	}
	d.idx = r
	d.optIdx.Store(r)
	return r
}

// TestMigrationSplitsReserved pins splitPages: every command that runs
// while a migration is in flight reserves the index pages its bucket
// splits can write back, so none of them leaves the free pool below the
// low-water mark. The geometry makes that bound bite: 2 KiB pages hold
// 128-record tables, so the index grows through many buckets; eight
// pages a block mean a few write-backs open a new index block; a cache
// of four tables means splits evict dirty tables. Reserving one
// write-back a point command instead, a command of this run leaves five
// free blocks.
func TestMigrationSplitsReserved(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.NAND.PageSize = 2 << 10
		c.NAND.BlocksPerDie = 64
		c.CacheBudget = 4 * 2 << 10
		c.StripeWidth = 1
	})
	r := withMigrateStep(t, d, 1)
	rng := rand.New(rand.NewSource(7))
	var midMigration, gcRuns int64
	run := func(i int, cmd func() error) {
		t.Helper()
		during, gcBefore := migrating(r), d.Stats().GCRuns
		if err := cmd(); err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, index.ErrCollision) {
			t.Fatalf("command %d: %v", i, err)
		}
		if !during {
			return
		}
		midMigration++
		gcRuns += d.Stats().GCRuns - gcBefore
		if free := d.mgr.FreeBlocks(); free < d.cfg.GCLowWater {
			t.Fatalf("command %d of a migration left %d free blocks, low water %d", i, free, d.cfg.GCLowWater)
		}
	}
	// Rounds of 100 small inserts, which grow the index, then 100
	// seven-page overwrites of eight hot keys, which keep collection at
	// the low-water mark. A block the overwrites filled holds one pair,
	// so collecting it costs one validating lookup's splits; with
	// smaller values a collection's own splits would write back more
	// index pages than it frees.
	for i := 0; i < 7000; i++ {
		run(i, func() error { _, err := d.Store(d.Now(), key(i), val(i, 16)); return err })
		if i%100 != 99 {
			continue
		}
		for j := 0; j < 100; j++ {
			run(i, func() error {
				_, err := d.Store(d.Now(), []byte(fmt.Sprintf("hot-%d", j%8)), val(j, 14000))
				return err
			})
		}
		run(i, func() error { _, _, err := d.Retrieve(d.Now(), key(rng.Intn(i+1))); return err })
		run(i, func() error { _, err := d.Delete(d.Now(), key(rng.Intn(i+1))); return err })
	}
	t.Logf("%d doublings, %d commands mid-migration, %d collections among them", len(d.ResizeEvents()), midMigration, gcRuns)
	if len(d.ResizeEvents()) < 3 || midMigration < 20 || gcRuns < 20 {
		t.Fatal("the case went unexercised")
	}
}

func TestResetOpStatsClearsHistograms(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), val(1, 16))
	mustGet(t, d, key(1))
	d.ResetOpStats()
	if d.StoreLatency().Count() != 0 || d.RetrieveLatency().Count() != 0 || d.MetaReadsPerOp().Count() != 0 {
		t.Fatal("ResetOpStats left samples")
	}
	// Counters (not per-op stats) are preserved.
	if d.Stats().Stores != 1 {
		t.Fatal("ResetOpStats clobbered counters")
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexRHIK.String() != "rhik" || IndexMultiLevel.String() != "mlhash" ||
		IndexLSM.String() != "lsm" || IndexKind(9).String() == "" {
		t.Fatal("IndexKind.String broken")
	}
}
