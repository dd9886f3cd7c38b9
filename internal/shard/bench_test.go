package shard

import (
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/workload"
)

// benchSet builds a single-shard set pre-populated with keys whose index
// buckets are all DRAM-resident, so every benchmarked get is a cache
// hit. AnticipatedKeys pre-sizes the directory to keep re-configuration
// out of the measurement.
func benchSet(tb testing.TB, keys int, mutate ...func(*device.Config)) (*Set, [][]byte) {
	tb.Helper()
	cfg := device.Config{
		Capacity:        256 << 20,
		AnticipatedKeys: int64(4 * keys),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	set, err := New(1, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = workload.KeyBytes(uint64(i))
		if err := set.Store(ks[i], workload.ValuePayload(uint64(i), 100)); err != nil {
			tb.Fatal(err)
		}
	}
	// Flush the open write page: a pair still pending there is invisible
	// to the lock-free read path and would force exclusive fallbacks into
	// the measurement.
	if err := set.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	// Touch every key once so any bucket evicted during population is
	// re-resident before measurement.
	for _, k := range ks {
		if _, err := set.Retrieve(k); err != nil {
			tb.Fatal(err)
		}
	}
	return set, ks
}

// TestOptimisticGetZeroAlloc pins the allocation claim across the read
// tiers: a DRAM-resident get with a reused value buffer allocates
// nothing, whether it flows lock-free (the default), through the legacy
// RWMutex tier, or — with the hot-value tier on — straight out of the
// value cache without touching the index at all.
func TestOptimisticGetZeroAlloc(t *testing.T) {
	for _, mode := range []string{"optimistic", "rwmutex", "valuecache"} {
		t.Run(mode, func(t *testing.T) {
			var mutate []func(*device.Config)
			if mode == "valuecache" {
				mutate = append(mutate, func(c *device.Config) { c.ValueCacheBudget = 1 << 20 })
			}
			set, ks := benchSet(t, 256, mutate...)
			defer set.Close()
			if mode == "rwmutex" {
				set.shards[0].opt = false
			}
			dst := make([]byte, 0, 256)
			i := 0
			allocs := testing.AllocsPerRun(2000, func() {
				v, err := set.RetrieveAppend(dst[:0], ks[i%len(ks)])
				if err != nil {
					t.Fatal(err)
				}
				dst = v
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s cache-hit get allocates %.1f times per op, want 0", mode, allocs)
			}
			st := set.Stats()
			switch mode {
			case "optimistic":
				if st.FallbackExclusive > 0 || st.OptimisticReads == 0 {
					t.Fatalf("optimistic=%d fallbacks=%d: not measuring the lock-free path",
						st.OptimisticReads, st.FallbackExclusive)
				}
			case "rwmutex":
				if st.LockUpgrades > 0 || st.SharedReads == 0 {
					t.Fatalf("shared=%d upgrades=%d: not measuring the RWMutex path",
						st.SharedReads, st.LockUpgrades)
				}
			case "valuecache":
				if st.Dev.ValueCacheHits == 0 || st.FallbackExclusive > 0 {
					t.Fatalf("vhits=%d fallbacks=%d: not measuring the value-cache hit path",
						st.Dev.ValueCacheHits, st.FallbackExclusive)
				}
			}
		})
	}
}

// BenchmarkConcurrentGet measures cache-hit GET throughput with 8
// goroutines against ONE shard — the tentpole scenario. Three modes:
//
//   - optimistic: the lock-free seqlock read path (this PR). Expected:
//     0 allocs/op, no shard-level lock acquired.
//   - exclusive: every read forced through the write lock via
//     ForceExclusiveReads — the same front-end minus reader concurrency.
//     On a multi-core host this is where the lock gap shows up as
//     wall-clock; on a single-core CI box the two differ only by lock
//     overhead, since timeslicing admits no parallel speedup.
//   - queued: reads funneled through ONE worker goroutine over a
//     channel — the pre-read-pool serving architecture, where a shard's
//     worker executed every command including reads. The lock-free path
//     must beat this by ≥2×: that per-op channel handoff is exactly
//     what the per-shard read pools delete.
func BenchmarkConcurrentGet(b *testing.B) {
	const (
		goroutines = 8
		keys       = 1024
	)
	b.Run("optimistic", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		runConcurrentGets(b, set, ks, goroutines)
		if st := set.Stats(); st.FallbackExclusive > 0 {
			b.Fatalf("%d reads fell back: not measuring the lock-free path", st.FallbackExclusive)
		}
	})
	b.Run("exclusive", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		set.ForceExclusiveReads(true)
		runConcurrentGets(b, set, ks, goroutines)
	})
	b.Run("queued", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		benchQueuedGets(b, set, ks, goroutines)
	})
}

// BenchmarkOptimisticVsRWMutex isolates what the optimistic tier buys
// over the previous read-locking designs on the identical workload: 8
// goroutines, one shard, all buckets DRAM-resident.
//
//   - optimistic: seqlock validation under an epoch pin; no shard lock.
//   - rwmutex: the prior PR's shared-RLock tier, forced by disabling the
//     per-shard optimistic flag (the white-box toggle keeps everything
//     else — device, cache state, key set — identical).
//   - exclusive: the write lock, as the serialization floor.
//
// On a single-vCPU runner the three collapse toward lock overhead
// deltas; the spread is real only with hardware parallelism. The CI
// record (results/BENCH_8.json) carries the host's CPU count for that
// reason.
func BenchmarkOptimisticVsRWMutex(b *testing.B) {
	const (
		goroutines = 8
		keys       = 1024
	)
	b.Run("optimistic", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		runConcurrentGets(b, set, ks, goroutines)
		if st := set.Stats(); st.FallbackExclusive > 0 {
			b.Fatalf("%d reads fell back: not measuring the lock-free path", st.FallbackExclusive)
		}
	})
	b.Run("rwmutex", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		set.shards[0].opt = false
		runConcurrentGets(b, set, ks, goroutines)
		if st := set.Stats(); st.LockUpgrades > 0 {
			b.Fatalf("%d reads upgraded: not measuring the RWMutex path", st.LockUpgrades)
		}
	})
	b.Run("exclusive", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		set.ForceExclusiveReads(true)
		runConcurrentGets(b, set, ks, goroutines)
	})
}

// runConcurrentGets fans b.N gets over g goroutines calling the set
// directly, each reusing a value buffer.
func runConcurrentGets(b *testing.B, set *Set, ks [][]byte, g int) {
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / g
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 0, 256)
			for i := 0; i < per; i++ {
				v, err := set.RetrieveAppend(dst[:0], ks[(w*per+i)%len(ks)])
				if err != nil {
					b.Errorf("retrieve: %v", err)
					return
				}
				dst = v
			}
		}(w)
	}
	// Remainder ops on the benchmark goroutine keep b.N exact.
	dst := make([]byte, 0, 256)
	for i := 0; i < b.N-per*g; i++ {
		v, err := set.RetrieveAppend(dst[:0], ks[i%len(ks)])
		if err != nil {
			b.Fatal(err)
		}
		dst = v
	}
	wg.Wait()
	b.StopTimer()
}

// benchQueuedGets reproduces the pre-read-pool serving shape: one
// worker goroutine owns the shard and every get crosses a channel to it
// and back.
func benchQueuedGets(b *testing.B, set *Set, ks [][]byte, g int) {
	type req struct {
		key   []byte
		reply chan error
	}
	q := make(chan req, 256)
	var worker sync.WaitGroup
	worker.Add(1)
	go func() {
		defer worker.Done()
		dst := make([]byte, 0, 256)
		for r := range q {
			v, err := set.RetrieveAppend(dst[:0], r.key)
			dst = v
			r.reply <- err
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / g
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reply := make(chan error, 1)
			for i := 0; i < per; i++ {
				q <- req{key: ks[(w*per+i)%len(ks)], reply: reply}
				if err := <-reply; err != nil {
					b.Errorf("retrieve: %v", err)
					return
				}
			}
		}(w)
	}
	reply := make(chan error, 1)
	for i := 0; i < b.N-per*g; i++ {
		q <- req{key: ks[i%len(ks)], reply: reply}
		if err := <-reply; err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
	b.StopTimer()
	close(q)
	worker.Wait()
}

// BenchmarkValueCacheHit prices the hot-value tier against the index
// tier it short-circuits, on the identical DRAM-resident workload: every
// benchmarked get is a hit either way, so the per-op delta is purely
// "value-cache probe" versus "seqlock walk + record decode". Both modes
// must stay at 0 allocs/op — the value tier returns a copy into the
// caller's reused buffer, never a cache-owned slice.
func BenchmarkValueCacheHit(b *testing.B) {
	const keys = 256
	run := func(b *testing.B, set *Set, ks [][]byte) {
		dst := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := set.RetrieveAppend(dst[:0], ks[i%len(ks)])
			if err != nil {
				b.Fatal(err)
			}
			dst = v
		}
		b.StopTimer()
	}
	b.Run("indexonly", func(b *testing.B) {
		set, ks := benchSet(b, keys)
		defer set.Close()
		run(b, set, ks)
	})
	b.Run("valuecache", func(b *testing.B) {
		set, ks := benchSet(b, keys, func(c *device.Config) { c.ValueCacheBudget = 1 << 20 })
		defer set.Close()
		run(b, set, ks)
		if st := set.Stats(); st.Dev.ValueCacheHits == 0 {
			b.Fatal("no value-cache hits: not measuring the hot-value path")
		}
	})
}

// BenchmarkStoreRetrieve measures the synchronous single-client
// store+retrieve round trip through the shard front-end (write path
// regression guard for the CI bench record).
func BenchmarkStoreRetrieve(b *testing.B) {
	set, err := New(1, device.Config{Capacity: 256 << 20, AnticipatedKeys: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	val := workload.ValuePayload(7, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := workload.KeyBytes(uint64(i % (1 << 14)))
		if err := set.Store(key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := set.Retrieve(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefixScan is the scan half of the ledger's lib-scan workload
// on its own: 2 shards preloaded with 200 000 sequential 16-byte keys and
// 128-byte values, iterator-mode signatures, and scans of zipfian-chosen
// 256-key groups with values. It reports flash reads per scan beside
// ns/op and B/op — the cost model is one index read plus the group's
// distinct data pages per shard, whatever else shares its directory
// bucket — and fails if a scan allocates more than a fixed handful of
// times: candidates, entries and one result slab per shard plus the
// fan-out and merge, nothing per record.
func BenchmarkPrefixScan(b *testing.B) {
	const (
		records   = 200_000
		groupSize = 256
		maxAllocs = 32
	)
	set, err := New(2, device.Config{
		Capacity:  512 << 20,
		SigScheme: index.SigScheme{Bits: 64, PrefixLen: workload.DefaultScanPrefixLen},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	for i := uint64(0); i < records; i++ {
		if err := set.Store(workload.KeyBytes(i), workload.ValuePayload(i, 128)); err != nil {
			b.Fatal(err)
		}
	}
	// Whole groups only, so every scan must return groupSize entries.
	zipf := workload.NewZipfian(records/groupSize, 0.99, 21)
	scan := func() {
		prefix := workload.KeyBytes(zipf.NextID() * groupSize)[:workload.DefaultScanPrefixLen]
		entries, err := set.Iterate(prefix)
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != groupSize {
			b.Fatalf("scan %q saw %d entries, want %d", prefix, len(entries), groupSize)
		}
	}
	if allocs := testing.AllocsPerRun(200, scan); allocs > maxAllocs {
		b.Fatalf("a %d-key scan allocates %.0f times, want <= %d", groupSize, allocs, maxAllocs)
	}
	reads := set.Stats().Flash.Reads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.StopTimer()
	b.ReportMetric(float64(set.Stats().Flash.Reads-reads)/float64(b.N), "flashreads/op")
}

// BenchmarkSnapshotScanVsLocked contrasts the two scan paths this PR
// leaves in the tree, both resolving the same prefix group under live
// write churn:
//
//   - locked: the legacy Set.Iterate, which takes every shard's write
//     lock for the duration of its bucket sweep — the scan and the
//     writers serialize against each other.
//   - snapshot: SetSnapshot.Iterate over a pre-captured MVCC view,
//     which reads frozen per-shard views with no shard lock at all;
//     writers commit concurrently and the scan's result set never
//     moves.
//
// The per-op delta is the price the old path charged every backup and
// stats pass; results/BENCH_9.json records it per commit.
func BenchmarkSnapshotScanVsLocked(b *testing.B) {
	const (
		keys    = 4096
		writers = 2
	)
	// One iterator-mode prefix group: KeyBytes ids sharing their first
	// DefaultScanPrefixLen bytes — ids 0..255 here. Both paths resolve
	// exactly this group, so the comparison is scan machinery only.
	prefix := workload.KeyBytes(0)[:workload.DefaultScanPrefixLen]
	const groupSize = 256
	open := func(b *testing.B) *Set {
		b.Helper()
		set, err := New(4, device.Config{
			Capacity:        64 << 20,
			AnticipatedKeys: 4 * keys,
			SigScheme:       index.SigScheme{Bits: 64, PrefixLen: workload.DefaultScanPrefixLen},
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if err := set.Store(workload.KeyBytes(uint64(i)), workload.ValuePayload(uint64(i), 100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := set.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		return set
	}
	// churn overwrites existing keys from `writers` goroutines for the
	// benchmark's duration, so the scans compete with real commits.
	churn := func(set *Set) (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; ; i += writers {
					select {
					case <-done:
						return
					default:
					}
					id := uint64(i % keys)
					if err := set.Store(workload.KeyBytes(id), workload.ValuePayload(uint64(i), 100)); err != nil {
						return
					}
				}
			}(w)
		}
		return func() { close(done); wg.Wait() }
	}

	b.Run("locked", func(b *testing.B) {
		set := open(b)
		defer set.Close()
		stop := churn(set)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, err := set.Iterate(prefix)
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) != groupSize {
				b.Fatalf("scan saw %d entries, want %d", len(entries), groupSize)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		set := open(b)
		defer set.Close()
		ss, err := set.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		defer ss.Release()
		stop := churn(set)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries, err := ss.Iterate(prefix)
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) != groupSize {
				b.Fatalf("snapshot scan saw %d entries, want %d", len(entries), groupSize)
			}
		}
	})
}
