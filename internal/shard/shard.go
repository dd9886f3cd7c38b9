// Package shard implements the sharded front-end of the emulated KVSSD:
// N independent device instances — each with its own lock, simulated
// clock, and index — behind a signature-based router. Real KVSSDs spread
// work across channels; here each shard models one such channel-group,
// so N shards execute commands with true host-side parallelism while
// every shard individually preserves the paper's per-device semantics
// (resize, GC, and collision accounting stay per-shard).
//
// Routing uses the TOP log2(N) bits of the key signature. The RHIK
// directory consumes the LOW signature bits (sig.Lo & (dirSize-1)), and
// iterator-mode signatures dedicate the low 32 bits to the key prefix,
// so routing on high bits keeps per-shard directories dense and leaves
// prefix locality intact. Prefix iteration therefore fans out to every
// shard and merges the per-shard sorted results.
//
// Locking model: each shard carries a sync.RWMutex. Mutating commands
// (Store, Delete, Iterate, checkpoint/restart/close, batches) hold the
// write lock. Reads have two tiers, which run the device's one GET and
// one EXIST body in two modes. TryRetrieveAppend and TryExist run the
// lock-free tier only: the device's TryRetrieveOptimistic /
// TryExistOptimistic validate against per-table seqlocks and
// epoch-pinned reclamation, returning ErrOptimisticRetry when a
// concurrent writer invalidated the attempt (retried up to
// maxOptimisticRetries) or ErrNeedExclusive when the lookup must mutate
// index structure (a cache miss whose read installs the table, an
// unmigrated bucket), must read a value still in an open page buffer,
// or the index has no optimistic surface (mlhash, lsm).
// RetrieveAppend and Exist try that tier first and re-execute under the
// write lock on refusal. Lock-free reads run concurrently with writers,
// mutating only atomics (clock advances, counters, CLOCK ref bits).
//
// With a WAL attached (walfront.go), every mutation goes through the
// shard's group committer: TrySubmit enqueues one without waiting and
// the committer calls back once it is applied and logged; Store and
// Delete submit and wait.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/sim"
	"repro/internal/wal"
)

// maxOptimisticRetries bounds how many times a read retries the
// lock-free path after ErrOptimisticRetry before falling back to the
// exclusive lock. Retries are cheap (the refusal is made before most
// charges), but a reader starved by a pathological write storm must
// eventually make progress under the lock.
const maxOptimisticRetries = 3

// Shard is one emulated device plus the host-side submission state for
// its command stream. The RWMutex serializes commands on this shard
// only; commands on different shards run concurrently, and read
// commands on the same shard run lock-free when the index answers
// without changing its cache.
type Shard struct {
	mu   sync.RWMutex
	dev  *device.Device
	last sim.AtomicTime // completion of the previous synchronous command

	// log and commitCh are non-nil once AttachWAL has run: mutations are
	// then journaled to the per-shard commit log, and the synchronous
	// Store/Delete paths hand off to the group committer instead of
	// taking the shard lock themselves.
	log      *wal.Log
	commitCh chan *walReq

	optimisticReads   atomic.Int64 // reads served with no shard lock at all
	optimisticRetries atomic.Int64 // lock-free attempts invalidated by a racing writer
	fallbackExclusive atomic.Int64 // reads that escalated to the write lock
}

// Device exposes the shard's device. Callers must not issue commands
// concurrently with Set operations; tools use this between phases.
func (s *Shard) Device() *device.Device { return s.dev }

// Set is a group of 2^k shards behind a signature router.
type Set struct {
	shards []*Shard
	scheme index.SigScheme
	shift  uint // 64 - log2(len(shards)); Lo >> shift selects the shard

	snapsOpen atomic.Int64 // open SetSnapshots
	snapReads atomic.Int64 // point reads served through snapshots

	walWG      sync.WaitGroup // committer goroutines
	walStopped atomic.Bool    // committers shut down (Close)
}

// New opens n fresh shards, each configured with cfg. n must be a power
// of two; the caller is responsible for dividing device-wide budgets
// (capacity, cache, anticipated keys) across the per-shard cfg.
func New(n int, cfg device.Config) (*Set, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, errors.New("shard: shard count must be a power of two >= 1")
	}
	s := &Set{shards: make([]*Shard, n)}
	k := uint(0)
	for 1<<k < n {
		k++
	}
	s.shift = 64 - k
	for i := range s.shards {
		dev, err := device.Open(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &Shard{dev: dev}
	}
	s.scheme = s.shards[0].dev.Scheme()
	return s, nil
}

// N reports the shard count.
func (s *Set) N() int { return len(s.shards) }

// Shard returns shard i.
func (s *Set) Shard(i int) *Shard { return s.shards[i] }

// RouteKey reports which shard owns key.
func (s *Set) RouteKey(key []byte) int {
	return s.route(s.scheme.Compute(key))
}

func (s *Set) route(sig index.Sig) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(sig.Lo >> s.shift)
}

func (s *Set) shardOf(key []byte) *Shard {
	return s.shards[s.route(s.scheme.Compute(key))]
}

// Store routes a synchronous put to the owning shard. The call observes
// the command's full simulated round trip on that shard's timeline.
// With a WAL attached the put joins the shard's group commit and is
// acknowledged only after its log record is written (and, under
// fsync=always, synced).
func (s *Set) Store(key, value []byte) error {
	sh := s.shardOf(key)
	if sh.commitCh != nil {
		return sh.commit(wal.OpPut, key, value)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	done, err := sh.dev.Store(sh.last.Load(), key, value)
	if err != nil {
		return err
	}
	// A direct (WAL-less) mutation is a one-op batch: fold it into the
	// write epoch before the lock drops, so a snapshot captured next
	// observes it with a closed epoch.
	sh.dev.AdvanceEpoch()
	sh.last.AdvanceTo(done)
	return nil
}

// Retrieve routes a synchronous get to the owning shard. It tries the
// lock-free tier first and re-executes under the shard's write lock
// when that tier refuses (see TryRetrieveAppend).
func (s *Set) Retrieve(key []byte) ([]byte, error) {
	v, err := s.RetrieveAppend(nil, key)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// RetrieveAppend is Retrieve with the value appended to dst, letting
// callers reuse one buffer across gets (the allocation-free hot path).
// On error dst is returned unchanged.
func (s *Set) RetrieveAppend(dst, key []byte) ([]byte, error) {
	sh := s.shardOf(key)
	v, err := sh.tryRetrieve(dst, key)
	if errors.Is(err, index.ErrNeedExclusive) {
		err = sh.exclusive(func(at sim.Time) (done sim.Time, err error) {
			v, done, err = sh.dev.RetrieveAppend(at, key, dst)
			return done, err
		})
	}
	return v, err
}

// TryRetrieveAppend is RetrieveAppend's lock-free tier alone: the
// device's one GET body, run with no lock. It returns
// index.ErrNeedExclusive when only the shard's write lock can serve the
// read: a page-in that installs the table, a lazy migration, a value
// still in an open page buffer, an index without an optimistic surface,
// or a writer that kept invalidating the attempt. A refusal at the probe
// charges no simulated time; RetrieveAppend then serves the read under
// the lock. A flash fault is the read's answer in either tier.
func (s *Set) TryRetrieveAppend(dst, key []byte) ([]byte, error) {
	return s.shardOf(key).tryRetrieve(dst, key)
}

// tryRetrieve runs a lock-free get, retrying it in place while a racing
// writer invalidates it, up to maxOptimisticRetries; after that, or when
// the device refuses, it returns index.ErrNeedExclusive.
func (sh *Shard) tryRetrieve(dst, key []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		v, done, err := sh.dev.TryRetrieveOptimistic(sh.last.Load(), key, dst)
		if err == nil {
			sh.last.AdvanceTo(done)
			sh.optimisticReads.Add(1)
			return v, nil
		}
		if err = sh.retry(err, attempt); err != nil {
			return dst, err
		}
	}
}

// retry accounts a failed lock-free attempt: nil means run it again;
// otherwise the error to return, index.ErrNeedExclusive once the retry
// budget is spent.
func (sh *Shard) retry(err error, attempt int) error {
	if !errors.Is(err, index.ErrOptimisticRetry) {
		return err
	}
	sh.optimisticRetries.Add(1)
	if attempt == maxOptimisticRetries {
		return index.ErrNeedExclusive
	}
	return nil
}

// exclusive re-executes a read the lock-free tier refused, under the
// shard's write lock.
func (sh *Shard) exclusive(read func(at sim.Time) (sim.Time, error)) error {
	sh.fallbackExclusive.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	done, err := read(sh.last.Load())
	if err == nil {
		sh.last.AdvanceTo(done)
	}
	return err
}

// Delete routes a synchronous delete to the owning shard, through the
// group committer when a WAL is attached.
func (s *Set) Delete(key []byte) error {
	sh := s.shardOf(key)
	if sh.commitCh != nil {
		return sh.commit(wal.OpDelete, key, nil)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	done, err := sh.dev.Delete(sh.last.Load(), key)
	if err != nil {
		return err
	}
	sh.dev.AdvanceEpoch()
	sh.last.AdvanceTo(done)
	return nil
}

// Exist routes a synchronous membership check to the owning shard,
// using the same lock-free-then-locked path as Retrieve.
func (s *Set) Exist(key []byte) (bool, error) {
	sh := s.shardOf(key)
	ok, err := sh.tryExist(key)
	if errors.Is(err, index.ErrNeedExclusive) {
		err = sh.exclusive(func(at sim.Time) (done sim.Time, err error) {
			ok, done, err = sh.dev.Exist(at, key)
			return done, err
		})
	}
	return ok, err
}

// TryExist is Exist's lock-free tier alone, refusing with
// index.ErrNeedExclusive exactly as TryRetrieveAppend does.
func (s *Set) TryExist(key []byte) (bool, error) {
	return s.shardOf(key).tryExist(key)
}

func (sh *Shard) tryExist(key []byte) (bool, error) {
	for attempt := 0; ; attempt++ {
		ok, done, err := sh.dev.TryExistOptimistic(sh.last.Load(), key)
		if err == nil {
			sh.last.AdvanceTo(done)
			sh.optimisticReads.Add(1)
			return ok, nil
		}
		if err = sh.retry(err, attempt); err != nil {
			return false, err
		}
	}
}

// Checkpoint makes accepted writes durable on every shard. Per-shard
// failures are annotated with the shard index and joined, so callers
// can unwrap which shard failed (errors.Is still matches the cause).
//
// With a WAL attached, each shard's checkpoint also stamps the log's
// compaction horizon with the highest sequence number the checkpoint
// covered — captured under the shard lock, so it is exactly the set of
// applied mutations — and then runs a compaction pass folding the
// segments beneath it.
func (s *Set) Checkpoint() error {
	var errs []error
	horizons := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.dev.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		} else if sh.log != nil {
			horizons[i] = sh.log.LastSeq()
		}
		sh.mu.Unlock()
	}
	if s.WALAttached() {
		if err := s.checkpointWAL(horizons); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Restart power-cycles every shard: one device-wide crash takes all
// channels down together, and each shard recovers independently.
// Per-shard failures are annotated with the shard index and joined.
func (s *Set) Restart() error {
	var errs []error
	for i, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.dev.Restart(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		} else {
			sh.last.Store(sh.dev.Now())
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Close checkpoints and shuts down every shard. Per-shard failures are
// annotated with the shard index and joined; a partial failure still
// closes the remaining shards. With a WAL attached, the group
// committers drain and stop before the devices close, then a final
// checkpoint stamps each log's compaction horizon and folds the
// segments beneath it — a graceful shutdown leaves a compacted log, so
// the next start replays only what a fresh device needs — and each log
// is synced and closed; no mutations may be submitted after Close.
func (s *Set) Close() error {
	s.stopCommitters()
	var errs []error
	if s.WALAttached() {
		if err := s.Checkpoint(); err != nil {
			errs = append(errs, err)
		}
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.dev.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
		if sh.log != nil {
			if err := sh.log.Close(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			}
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Elapsed merges the per-shard clocks into device-wide elapsed time.
// Shards execute in parallel — they model independent channel groups —
// so the merged value is the maximum over shards of that shard's drain
// time and last synchronous completion, not the sum.
func (s *Set) Elapsed() sim.Duration {
	var m sim.Time
	for _, sh := range s.shards {
		sh.mu.RLock()
		t := sh.dev.Drain()
		if last := sh.last.Load(); last > t {
			t = last
		}
		sh.mu.RUnlock()
		if t > m {
			m = t
		}
	}
	return sim.Duration(m)
}
