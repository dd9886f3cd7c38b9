// Package index defines the contract between the KVSSD device model and
// its pluggable key-to-physical-location indexes: RHIK (internal/core),
// the Samsung-style multi-level hash baseline (internal/mlhash), and the
// PinK-style LSM index (internal/lsmindex). All indexes persist their
// pages through the same Env, so flash-read counts and DRAM cache
// behaviour are directly comparable (Fig. 5).
package index

import (
	"errors"

	"repro/internal/dram"
	"repro/internal/nand"
	"repro/internal/sim"
)

// ErrCollision is the paper's "uncorrectable error": the index cannot
// place a record (e.g. no hopscotch slot within the hop range) and the
// store operation must be aborted. The application is expected to retry
// with a different key.
var ErrCollision = errors.New("index: uncorrectable signature collision, operation aborted")

// ErrNeedExclusive is returned by the shared (reader-locked) and
// optimistic (lock-free) device read paths when an operation cannot
// proceed without mutating index structure — a DRAM cache miss that must
// load a page, or a lazy migration step during incremental resize. The
// shard catches it before any simulated-time charge has been made,
// takes the write lock, and re-executes the operation on the exclusive
// path.
var ErrNeedExclusive = errors.New("index: lookup needs exclusive access")

// ErrOptimisticRetry is returned by the lock-free read path when a
// version validation failed mid-operation: a writer mutated the probed
// table, swapped the directory generation, or restructured device state
// while the read was in flight. Unlike ErrNeedExclusive it is
// transient — the caller retries the optimistic path up to its retry
// budget before falling back to the exclusive lock. Simulated-time
// charges made before the failed validation stand (the speculative work
// really occupied the firmware), so only genuinely-raced operations pay
// the retry cost and single-threaded runs never see it.
var ErrOptimisticRetry = errors.New("index: optimistic read invalidated, retry")

// OptStatus classifies the outcome of an optimistic index probe.
type OptStatus uint8

const (
	// OptOK: the probe validated; its result may be acted on.
	OptOK OptStatus = iota
	// OptRetry: a concurrent mutation invalidated the probe; retrying
	// immediately may succeed.
	OptRetry
	// OptNeedExclusive: the probe cannot succeed without mutating index
	// structure (cache miss, unmigrated bucket, poisoned state); the
	// caller must escalate to the exclusive path.
	OptNeedExclusive
)

// Env is the device-side service surface an index uses to persist its
// pages. Index page reads and writes block the firmware timeline —
// mapping resolution is inherently serial — which is exactly why index
// residency in DRAM dominates KVSSD performance.
type Env interface {
	// ReadPage fetches an index page from flash, charging its latency
	// and counting one metadata flash read.
	ReadPage(p nand.PPA) ([]byte, error)
	// AppendPage programs an index page into the index zone log and
	// returns its address. It must not retain data: callers reuse the
	// buffer for the next page.
	AppendPage(data []byte) (nand.PPA, error)
	// Invalidate marks a superseded index page stale for GC.
	Invalidate(p nand.PPA)
	// ChargeCPU advances the firmware timeline by d (hashing, probing).
	ChargeCPU(d sim.Duration)
	// MetaReads reports cumulative metadata flash reads; the device
	// samples it around each operation for per-op distributions.
	MetaReads() int64
	// Now reports the current firmware time (for resize timing).
	Now() sim.Time
}

// Index is a key-signature → record-pointer map backed by flash pages.
// Implementations are single-threaded; the device serializes access.
type Index interface {
	// Insert stores or updates the record for sig, returning the
	// replaced record pointer (for staleness accounting) if any.
	// ErrCollision aborts the operation.
	Insert(sig Sig, rp uint64) (old uint64, replaced bool, err error)
	// Lookup returns the record pointer for sig. It is the lookup that
	// precedes a mutation of sig's record (store, delete, GC relocation,
	// recovery), so an index that caches pages keeps the one it read:
	// the mutation that follows must not read it again.
	Lookup(sig Sig) (rp uint64, ok bool, err error)
	// Get is Lookup for a read that mutates nothing after it (GET,
	// EXIST). Its answer and its flash-read bound are Lookup's, but an
	// index may answer a cache miss from the page it read without
	// caching that page.
	Get(sig Sig) (rp uint64, ok bool, err error)
	// Delete removes sig's record, returning the old record pointer.
	Delete(sig Sig) (rp uint64, ok bool, err error)
	// Exist is the signature-based membership check: true means the key
	// may exist (subject to signature-collision false positives), false
	// means it definitely does not.
	Exist(sig Sig) (bool, error)
	// Len reports the number of records.
	Len() int64
	// Flush writes all dirty index state to flash (checkpoint).
	Flush() error
	// Name identifies the scheme in reports.
	Name() string
}

// SharedReader is implemented by indexes whose Get/Exist can run under
// a shared (read) lock when the needed state is DRAM-resident.
// SharedLookupReady must be a pure pre-flight check: no timeline charges,
// no counter updates, no cache recency effects. When it returns true, a
// subsequent Get/Exist for the same sig is guaranteed to mutate nothing
// but atomics (counters, cache reference bits) — safe among concurrent
// readers — because only writers, which hold the exclusive lock, can
// evict or restructure between the check and the lookup.
type SharedReader interface {
	SharedLookupReady(sig Sig) bool
}

// PrefixScanner is implemented by indexes that can enumerate candidate
// record pointers for an iterator-mode key prefix (SigScheme.PrefixLen >
// 0): exactly the live records whose signature's low 32 bits equal low —
// the device reads every candidate's data page, so a record of another
// prefix group is a wasted flash read. Two prefixes can still share low;
// the device tells them apart by comparing stored keys. Each superseded
// record version must be excluded (newest wins). The index's own flash
// reads must be deterministic, since they are charged to the simulated
// timeline; the device sorts the result, which the caller owns.
type PrefixScanner interface {
	PrefixRecords(low uint32) ([]uint64, error)
}

// RecordEnumerator is implemented by indexes that can enumerate every
// live record with its full signature. The device's snapshot capture
// uses it to freeze a point-in-time view: RangeRecords must visit each
// live (signature, record pointer) binding exactly once, with no
// superseded versions and no tombstones. It runs under the device's
// exclusive serialization, so implementations may mutate internal state
// (drain a lazy migration, load tables through the cache) and charge
// the flash reads that enumeration costs.
type RecordEnumerator interface {
	RangeRecords(f func(lo, hi, rp uint64) bool) error
}

// Stats is the common observability surface for index implementations.
type Stats struct {
	Records    int64
	Collisions int64 // aborted inserts (ErrCollision)
	Resizes    int
	DirEntries int   // directory/bucket entries in DRAM
	DRAMBytes  int64 // resident footprint charged to SSD DRAM
	Cache      dram.Stats
}

// StatsProvider is implemented by indexes that expose Stats.
type StatsProvider interface {
	IndexStats() Stats
}

// ResizeEvent records one re-configuration (Fig. 7).
type ResizeEvent struct {
	KeysBefore  int64        // records in the index when resize fired
	NewCapacity int64        // record capacity after doubling
	Took        sim.Duration // simulated migration time
}

// Resizer is implemented by indexes that re-configure themselves (RHIK).
// The device invokes Resize between commands with the submission queue
// halted, matching the paper's stop-the-world migration.
type Resizer interface {
	// NeedsResize reports whether occupancy crossed the threshold.
	NeedsResize() bool
	// Resize doubles the index and migrates all records.
	Resize() error
	// ResizeEvents returns the history of completed resizes.
	ResizeEvents() []ResizeEvent
}

// CacheResizer is implemented by indexes whose DRAM cache budget can be
// adjusted at runtime. Crash recovery uses it: while rebuilding, the
// index may use all device DRAM (no user data is cached yet), then the
// budget returns to its configured value.
type CacheResizer interface {
	ResizeCache(budget int64)
}

// Relocator lets the index-zone garbage collector move live index pages.
type Relocator interface {
	// Owner reports whether flash page p holds live index state and, if
	// so, the implementation-private unit (e.g. directory bucket) owning
	// it.
	Owner(p nand.PPA) (unit uint64, live bool)
	// Relocate rewrites the unit's page to a fresh flash location,
	// invalidating the old one.
	Relocate(unit uint64) error
}

// Checkpointer is implemented by indexes whose in-DRAM state (e.g. RHIK's
// directory layer) can be serialized for the device's periodic
// checkpoint and restored on power-up.
type Checkpointer interface {
	// EncodeState serializes the DRAM-resident index state. The device
	// must call Flush first so flash-resident pages are current.
	EncodeState() []byte
	// LoadState restores state serialized by EncodeState.
	LoadState(data []byte) error
	// PersistentPages lists every flash page the serialized state
	// references by address. The device pins these until the next
	// checkpoint: they must be neither relocated nor erased, or the
	// persisted directory would dangle across a crash.
	PersistentPages() []nand.PPA
}
