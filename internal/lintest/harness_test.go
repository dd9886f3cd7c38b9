package lintest_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/lintest"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestOptimisticLinearizable is the harness the optimistic read path
// answers to: 8 reader goroutines and 2 writer goroutines race over 24
// shared keys on ONE shard while 2 churn writers grow a disjoint key
// range hard enough to keep incremental re-configurations, cache
// evictions, and GC cycling underneath. Every completed operation is
// timestamped from one shared monotonic counter and fed per key into
// the Wing & Gong checker; any non-linearizable window — a torn read, a
// stale value resurrected after a delete, a read that travels backwards
// in time — fails the test.
//
// The run is organized as bursts with a barrier between them. The
// barrier keeps each key's per-window history under the checker's
// MaxOps cap, and the quiesced read after each burst both joins that
// burst's history (so it is itself checked) and seeds the next window's
// initial register value. Writer 0 additionally hammers key 0
// back-to-back inside each burst so that seqlock invalidations — a
// writer bumping a bucket version inside a reader's probe-to-validate
// window — actually occur, not just the easier fallback cases.
//
// The harness insists the interesting machinery fired: the run must
// observe optimistic retries (seqlock invalidations), exclusive
// fallbacks (unmigrated buckets / pending pairs), and epoch pins, or
// the schedule silently stopped exercising the lock-free path and the
// test lost its meaning. Run under -race in CI.
func TestOptimisticLinearizable(t *testing.T) {
	set, err := shard.New(1, device.Config{Capacity: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	const (
		sharedKeys   = 24
		readers      = 8
		readsPer     = 48 // per reader per burst; exactly 2 per key
		writers      = 2
		writesPer    = 24 // per writer per burst; exactly 1 per key
		hotWrites    = 24 // writer 0's extra back-to-back stores of key 0
		churnWriters = 2
		churnPer     = 400
		churnBase    = 1 << 20
		minBursts    = 4
		maxBursts    = 60
	)

	var (
		clock  atomic.Uint64 // logical timestamps
		valIDs atomic.Uint64 // unique non-zero write values
	)
	key := func(k uint64) []byte { return workload.KeyBytes(k) }
	encode := func(id uint64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], id)
		return b[:]
	}

	// timedStore / timedDelete / timedRead wrap one shard call in clock
	// draws and return the Op to record.
	timedStore := func(k uint64) (lintest.Op, error) {
		id := valIDs.Add(1)
		start := clock.Add(1)
		err := set.Store(key(k), encode(id))
		return lintest.Op{Start: start, End: clock.Add(1), Write: true, Value: id}, err
	}
	timedDelete := func(k uint64) (lintest.Op, error) {
		start := clock.Add(1)
		err := set.Delete(key(k))
		if errors.Is(err, device.ErrNotFound) {
			// Deleting an absent key is a no-op write of zero: under the
			// shard's write lock the register provably held zero at that
			// instant, so the op linearizes there.
			err = nil
		}
		return lintest.Op{Start: start, End: clock.Add(1), Write: true, Value: 0}, err
	}
	timedRead := func(dst []byte, k uint64) (lintest.Op, []byte, error) {
		start := clock.Add(1)
		v, err := set.RetrieveAppend(dst[:0], key(k))
		end := clock.Add(1)
		switch {
		case errors.Is(err, device.ErrNotFound):
			return lintest.Op{Start: start, End: end}, dst, nil
		case err != nil:
			return lintest.Op{}, dst, err
		case len(v) != 8:
			return lintest.Op{}, v, fmt.Errorf("key %d: %d-byte value, want 8", k, len(v))
		}
		return lintest.Op{Start: start, End: end, Value: binary.BigEndian.Uint64(v)}, v, nil
	}

	type rec struct {
		key uint64
		op  lintest.Op
	}
	init := make([]uint64, sharedKeys) // register value each window starts from
	churnID := uint64(0)
	fired := func() bool {
		st := set.Stats()
		return st.OptimisticRetries > 0 && st.FallbackExclusive > 0 && st.EpochPins > 0
	}

	// One snapshot capture per burst, taken while the burst is in full
	// flight. The capture window [start, end] brackets the Snapshot()
	// call on the shared clock; the frozen values are read afterwards
	// (concurrently with the still-running writers — MVCC's whole claim
	// is that the view no longer moves) and handed to SnapshotCheck at
	// quiesce: some single instant inside the window must explain every
	// key's observed value at once.
	type snapResult struct {
		start, end uint64
		vals       []uint64
		err        error
	}

	burst := 0
	for ; burst < maxBursts; burst++ {
		var wg sync.WaitGroup
		errc := make(chan error, readers+writers+churnWriters)
		logs := make([][]rec, readers+writers) // one op log per checked worker
		windowInit := append([]uint64(nil), init...)
		snapc := make(chan snapResult, 1)

		wg.Add(1)
		go func() {
			defer wg.Done()
			res := snapResult{vals: make([]uint64, sharedKeys)}
			res.start = clock.Add(1)
			ss, err := set.Snapshot()
			res.end = clock.Add(1)
			if err != nil {
				res.err = fmt.Errorf("snapshot: %w", err)
				snapc <- res
				return
			}
			defer ss.Release()
			for k := uint64(0); k < sharedKeys; k++ {
				v, err := ss.Get(key(k))
				switch {
				case errors.Is(err, device.ErrNotFound):
					// absent = register value 0, same convention as reads
				case err != nil:
					res.err = fmt.Errorf("snapshot get key %d: %w", k, err)
					snapc <- res
					return
				case len(v) != 8:
					res.err = fmt.Errorf("snapshot get key %d: %d-byte value, want 8", k, len(v))
					snapc <- res
					return
				default:
					res.vals[k] = binary.BigEndian.Uint64(v)
				}
			}
			snapc <- res
		}()

		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				dst := make([]byte, 0, 16)
				log := make([]rec, 0, readsPer)
				for i := 0; i < readsPer; i++ {
					k := (uint64(w)*3 + uint64(i)) % sharedKeys
					op, v, err := timedRead(dst, k)
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", w, err)
						return
					}
					dst = v
					log = append(log, rec{key: k, op: op})
				}
				logs[w] = log
			}(rd)
		}
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				log := make([]rec, 0, writesPer+hotWrites)
				for i := 0; i < writesPer; i++ {
					k := (uint64(w)*5 + uint64(i)*7) % sharedKeys
					var op lintest.Op
					var err error
					if i%5 == 3 {
						op, err = timedDelete(k)
					} else {
						op, err = timedStore(k)
					}
					if err != nil {
						errc <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					log = append(log, rec{key: k, op: op})
					if w == 0 {
						// Hammer key 0 back-to-back: version bumps landing
						// inside reader validation windows force retries.
						op, err := timedStore(0)
						if err != nil {
							errc <- fmt.Errorf("writer %d hot: %w", w, err)
							return
						}
						log = append(log, rec{key: 0, op: op})
					}
				}
				logs[readers+w] = log
			}(wr)
		}
		for cw := 0; cw < churnWriters; cw++ {
			wg.Add(1)
			go func(w int, base uint64) {
				defer wg.Done()
				for i := uint64(0); i < churnPer; i++ {
					id := churnBase + base + uint64(w)*churnPer + i
					k := workload.KeyBytes(id)
					if err := set.Store(k, encode(valIDs.Add(1))); err != nil {
						errc <- fmt.Errorf("churn %d: %w", w, err)
						return
					}
					if i%6 == 5 {
						if err := set.Delete(k); err != nil {
							errc <- fmt.Errorf("churn %d delete: %w", w, err)
							return
						}
					}
				}
			}(cw, churnID)
		}
		churnID += churnWriters * churnPer
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}

		// Quiesced: group the window per key, close each history with a
		// final read (itself part of the checked history), verify, and
		// seed the next window.
		hist := make([][]lintest.Op, sharedKeys)
		for _, log := range logs {
			for _, r := range log {
				hist[r.key] = append(hist[r.key], r.op)
			}
		}
		dst := make([]byte, 0, 16)
		for k := 0; k < sharedKeys; k++ {
			op, v, err := timedRead(dst, uint64(k))
			if err != nil {
				t.Fatal(err)
			}
			dst = v
			hist[k] = append(hist[k], op)
			// MaxOps-1: the snapshot check joins one zero-width read to
			// each history below.
			if len(hist[k]) > lintest.MaxOps-1 {
				t.Fatalf("burst %d key %d: %d ops exceeds checker cap %d",
					burst, k, len(hist[k]), lintest.MaxOps-1)
			}
			if !lintest.Check(init[k], hist[k]) {
				t.Fatalf("burst %d key %d: history of %d ops is NOT linearizable from init=%d: %+v",
					burst, k, len(hist[k]), init[k], hist[k])
			}
			init[k] = op.Value
		}

		// Snapshot consistency: the frozen values must be the registers'
		// state at ONE instant inside the capture window, across every
		// key at once — a capture that tore across a write (kept a later
		// write but missed an earlier, completed one) fails here.
		snap := <-snapc
		if snap.err != nil {
			t.Fatalf("burst %d: %v", burst, snap.err)
		}
		if !lintest.SnapshotCheck(windowInit, snap.vals, hist, snap.start, snap.end) {
			t.Fatalf("burst %d: snapshot in window [%d, %d] observed values %v, inconsistent with per-key histories",
				burst, snap.start, snap.end, snap.vals)
		}

		if burst+1 >= minBursts && fired() {
			break
		}
	}

	// Contention phase, reached when the bursts produced no seqlock
	// retry (the common case on a single-CPU host: the probe-to-validate
	// window is tens of nanoseconds, so a writer almost never lands a
	// version bump inside it). Widen the window instead of praying: one
	// hot key holds a multi-page value, so an optimistic read spends
	// nearly all its time between probe and final validation assembling
	// extents. Whenever the scheduler preempts a reader inside that span,
	// the writer loop stores the same key before the reader resumes — its
	// version bump fails the reader's revalidation, which is exactly the
	// ErrOptimisticRetry path this harness must prove harmless. Readers
	// verify a whole-value integrity pattern, so a torn extent assembly
	// (pages from two different versions) cannot go unnoticed.
	if st := set.Stats(); st.OptimisticRetries == 0 {
		const hotSize = 32 << 10
		hotKey := workload.KeyBytes(1 << 30) // outside the checked and churn ranges
		hotVal := func(id uint64) []byte {
			v := make([]byte, hotSize)
			binary.BigEndian.PutUint64(v, id)
			for j := 8; j < hotSize; j++ {
				v[j] = byte(id)*31 + byte(j)
			}
			return v
		}
		if err := set.Store(hotKey, hotVal(valIDs.Add(1))); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var cwg sync.WaitGroup
		cerrc := make(chan error, 3)
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for !stop.Load() {
				if err := set.Store(hotKey, hotVal(valIDs.Add(1))); err != nil {
					cerrc <- fmt.Errorf("hot writer: %w", err)
					return
				}
			}
		}()
		for rd := 0; rd < 2; rd++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				dst := make([]byte, 0, hotSize)
				for !stop.Load() {
					v, err := set.RetrieveAppend(dst[:0], hotKey)
					if err != nil {
						cerrc <- fmt.Errorf("hot reader: %w", err)
						return
					}
					dst = v
					if len(v) != hotSize {
						cerrc <- fmt.Errorf("hot reader: %d-byte value, want %d", len(v), hotSize)
						return
					}
					id := binary.BigEndian.Uint64(v)
					for j := 8; j < hotSize; j++ {
						if v[j] != byte(id)*31+byte(j) {
							cerrc <- fmt.Errorf("hot reader: torn value: id %d, byte %d", id, j)
							return
						}
					}
				}
			}()
		}
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) && set.Stats().OptimisticRetries == 0 {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
		cwg.Wait()
		close(cerrc)
		for err := range cerrc {
			t.Fatal(err)
		}
	}

	st := set.Stats()
	t.Logf("bursts=%d optimisticReads=%d retries=%d fallbacks=%d epochPins=%d resizes=%d snapReads=%d",
		burst+1, st.OptimisticReads, st.OptimisticRetries, st.FallbackExclusive,
		st.EpochPins, st.Index.Resizes, st.SnapshotReads)
	if st.SnapshotReads == 0 {
		t.Fatal("no read was ever served through a snapshot; the capture goroutine did not run")
	}
	if st.OptimisticRetries == 0 {
		t.Fatal("no seqlock invalidation ever forced a retry; the schedule is not contending")
	}
	if st.FallbackExclusive == 0 {
		t.Fatal("no read ever fell back to the write lock; migrations never overlapped reads")
	}
	if st.EpochPins == 0 {
		t.Fatal("no reader ever pinned the epoch domain; the lock-free path did not run")
	}
	if st.Index.Resizes == 0 {
		t.Fatal("churn never triggered a re-configuration; the harness lost its point")
	}
}
