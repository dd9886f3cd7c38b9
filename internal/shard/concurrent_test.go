package shard

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/workload"
)

// migrating reports whether shard i's index has a re-configuration in
// flight.
func migrating(s *Set, i int) bool {
	m, ok := s.Shard(i).Device().Index().(interface{ PendingSplits() (int, int) })
	if !ok {
		return false
	}
	left, _ := m.PendingSplits()
	return left > 0
}

// TestReaderHeavySchedule runs the read path's intended deployment
// shape under -race: 8 reader goroutines hammering a stable
// pre-populated key set through the lock-free optimistic path while 2
// writer goroutines churn a disjoint key range hard enough to trigger
// incremental re-configurations on the same shard. Readers must always
// see their keys' exact values — never a torn read, never a phantom
// miss — and the run must end with reads flowing through the
// optimistic path again once migrations drain.
func TestReaderHeavySchedule(t *testing.T) {
	set, err := New(1, device.Config{Capacity: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Stable keys: written once, then only read.
	const stable = 400
	stableVal := func(id uint64) []byte {
		return workload.ValuePayload(id, 64)
	}
	for id := uint64(0); id < stable; id++ {
		if err := set.Store(workload.KeyBytes(id), stableVal(id)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers     = 8
		writers     = 2
		readsPer    = 1500
		writesPer   = 2500
		writerBase  = 1 << 20 // disjoint from the stable ids
		writerRange = 20000
	)
	var wg sync.WaitGroup
	var writersDone atomic.Bool
	errc := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			dst := make([]byte, 0, 128)
			// Run at least readsPer reads, and keep reading until the
			// writers finish so reads overlap every migration window.
			for i := 0; i < readsPer || !writersDone.Load(); i++ {
				id := (seed + uint64(i)) % stable
				v, err := set.RetrieveAppend(dst[:0], workload.KeyBytes(id))
				if err != nil {
					errc <- fmt.Errorf("reader: retrieve %d: %w", id, err)
					return
				}
				if !bytes.Equal(v, stableVal(id)) {
					errc <- fmt.Errorf("reader: key %d value diverged", id)
					return
				}
				dst = v
				if i%5 == 0 {
					ok, err := set.Exist(workload.KeyBytes(id))
					if err != nil || !ok {
						errc <- fmt.Errorf("reader: exist %d = (%v,%v)", id, ok, err)
						return
					}
				}
			}
		}(uint64(r) * 13)
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			defer writerWG.Done()
			for i := 0; i < writesPer; i++ {
				id := writerBase + seed*writerRange + uint64(i)%writerRange
				key := workload.KeyBytes(id)
				if err := set.Store(key, workload.ValuePayload(id, 32)); err != nil {
					errc <- fmt.Errorf("writer: store %d: %w", id, err)
					return
				}
				if i%7 == 3 {
					if err := set.Delete(key); err != nil {
						errc <- fmt.Errorf("writer: delete %d: %w", id, err)
						return
					}
				}
			}
		}(uint64(w))
	}
	go func() {
		// Writers-done flag flips as soon as both writers return; the
		// separate waitgroup pass below still waits for the readers.
		defer writersDone.Store(true)
		writerWG.Wait()
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce. Optimistic reads of already-migrated buckets no longer
	// advance the migration (that is the point: GETs do not block on or
	// pay for it), so cycling reads over the stable keys cannot be
	// relied on to drain it — checkpoint instead, which drains
	// explicitly.
	if migrating(set, 0) {
		if err := set.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if migrating(set, 0) {
		t.Fatal("migration survived a checkpoint")
	}
	// Re-warm the probe key's bucket (the checkpoint may have been
	// preceded by evictions during churn).
	if _, err := set.Retrieve(workload.KeyBytes(1)); err != nil {
		t.Fatal(err)
	}

	st := set.Stats()
	if st.OptimisticReads == 0 {
		t.Fatal("no read ever took the lock-free path")
	}
	if st.Index.Resizes == 0 {
		t.Fatal("writers never triggered a re-configuration; the schedule lost its point")
	}
	if st.FallbackExclusive == 0 {
		t.Fatal("no read ever fell back: reads never overlapped a migration or a pending pair")
	}
	if st.EpochPins == 0 {
		t.Fatal("no optimistic read ever pinned the reclamation domain")
	}
	t.Logf("optimisticReads=%d retries=%d fallbacks=%d epochPins=%d resizes=%d",
		st.OptimisticReads, st.OptimisticRetries, st.FallbackExclusive,
		st.EpochPins, st.Index.Resizes)

	// With the set quiesced and every touched bucket cached, a read must
	// go lock-free.
	before := st.OptimisticReads
	if _, err := set.Retrieve(workload.KeyBytes(1)); err != nil {
		t.Fatal(err)
	}
	if got := set.Stats().OptimisticReads; got != before+1 {
		t.Fatalf("quiesced read did not go lock-free: optimisticReads %d -> %d", before, got)
	}
}

// TestReadMidMigrationUpgrades pins the fallback rule: a read arriving
// while an incremental re-configuration is in flight, for a bucket the
// migration has not yet produced, must refuse the lock-free path with
// exactly one escalation (ErrNeedExclusive is not retried), re-execute
// under the write lock — which migrates the touched bucket — and still
// return the right value. The SAME key read again immediately goes
// lock-free, because the exclusive pass published its freshly migrated
// bucket. Once the migration drains, the probe stays lock-free.
// Deterministic: single shard, no background goroutines.
func TestReadMidMigrationUpgrades(t *testing.T) {
	set, err := New(1, device.Config{Capacity: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Store until a store arms a migration (the device resizes inside
	// afterMutation, so the migration is freshly armed when we stop).
	// Skip past the first resizes: their old directories are small enough
	// that one or two operations' background quota drains them, and this
	// test needs the migration to outlive the probe read.
	id := uint64(0)
	for !migrating(set, 0) || set.Stats().Index.Resizes < 3 {
		if err := set.Store(workload.KeyBytes(id), workload.ValuePayload(id, 40)); err != nil {
			t.Fatal(err)
		}
		id++
		if id > 1_000_000 {
			t.Fatal("no incremental resize ever started")
		}
	}

	probe := workload.KeyBytes(0)
	st := set.Stats()
	v, err := set.Retrieve(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, workload.ValuePayload(0, 40)) {
		t.Fatal("mid-migration read returned wrong value")
	}
	after := set.Stats()
	if got := after.FallbackExclusive - st.FallbackExclusive; got != 1 {
		t.Fatalf("mid-migration read took %d exclusive fallbacks, want exactly 1", got)
	}
	if after.OptimisticReads != st.OptimisticReads {
		t.Fatal("mid-migration read counted as lock-free")
	}
	if after.OptimisticRetries != st.OptimisticRetries {
		t.Fatal("an unmigrated bucket must escalate immediately, not spin the retry budget")
	}

	// The exclusive pass migrated and published the probe's bucket: the
	// same read now goes lock-free even though the migration is still in
	// flight on other buckets.
	if !migrating(set, 0) {
		t.Fatal("migration drained too early for the re-read to be mid-migration")
	}
	st = set.Stats()
	if _, err := set.Retrieve(probe); err != nil {
		t.Fatal(err)
	}
	after = set.Stats()
	if after.OptimisticReads != st.OptimisticReads+1 || after.FallbackExclusive != st.FallbackExclusive {
		t.Fatalf("re-read of migrated bucket: optimistic %d->%d fallbacks %d->%d, want lock-free",
			st.OptimisticReads, after.OptimisticReads, st.FallbackExclusive, after.FallbackExclusive)
	}

	// Drain the migration with further reads: lock-free reads of
	// already-migrated buckets deliberately contribute nothing, but each
	// not-yet-migrated bucket forces one fallback whose exclusive pass
	// migrates it plus the background quota, so cycling over every key
	// completes the migration.
	for i := uint64(0); migrating(set, 0); i++ {
		if _, err := set.Retrieve(workload.KeyBytes(i % id)); err != nil {
			t.Fatal(err)
		}
		if i > 1_000_000 {
			t.Fatal("migration never drained")
		}
	}
	st = set.Stats()
	if _, err := set.Retrieve(probe); err != nil {
		t.Fatal(err)
	}
	after = set.Stats()
	if after.OptimisticReads != st.OptimisticReads+1 || after.FallbackExclusive != st.FallbackExclusive {
		t.Fatalf("post-migration read: optimistic %d->%d fallbacks %d->%d, want lock-free fast path",
			st.OptimisticReads, after.OptimisticReads, st.FallbackExclusive, after.FallbackExclusive)
	}
}

// TestStatsUnderConcurrentReaders is the -race regression for the Stats
// snapshot: merging per-shard counters under the read lock while
// readers run must be race-free.
func TestStatsUnderConcurrentReaders(t *testing.T) {
	set, err := New(2, device.Config{Capacity: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	const keys = 100
	for id := uint64(0); id < keys; id++ {
		if err := set.Store(workload.KeyBytes(id), workload.ValuePayload(id, 24)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := set.Retrieve(workload.KeyBytes((seed + uint64(i)) % keys)); err != nil {
					t.Errorf("retrieve: %v", err)
					return
				}
			}
		}(uint64(r))
	}
	for i := 0; i < 50; i++ {
		st := set.Stats()
		if st.Dev.Retrieves < 0 {
			t.Fatal("impossible snapshot")
		}
	}
	wg.Wait()
	st := set.Stats()
	if got := st.Dev.Retrieves; got != 4*500 {
		t.Fatalf("Retrieves = %d, want %d", got, 4*500)
	}
}
