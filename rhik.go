// Package rhik is a reproduction of "RHIK: Re-configurable Hash-based
// Indexing for KVSSD" (HPDC 2023): a discrete-event emulated Key-Value
// SSD whose firmware indexes keys with RHIK — a two-level hash index
// whose directory lives in device DRAM and whose record layer consists
// of page-sized hopscotch hash tables on flash, guaranteeing at most one
// flash read per index lookup and re-configuring (doubling) itself as
// the key population grows.
//
// The package exposes the device through a SNIA-KV-API-flavored surface:
// Store, Retrieve, Delete, Exist, Iterate, plus an asynchronous Batch
// path. All timing is simulated: Elapsed and the per-op latencies report
// device time, deterministic across runs, so experiments are both fast
// and reproducible.
//
// The front-end is sharded: Options.Shards partitions the key space by
// signature bits across independent emulated devices, each with its own
// lock and simulated clock, so concurrent callers on different shards
// proceed in parallel (internal/shard). With Shards: 1 the behavior —
// including every simulated timestamp — is identical to a single
// unsharded device.
//
//	db, err := rhik.Open(rhik.Options{Capacity: 1 << 30})
//	...
//	err = db.Store([]byte("user:42"), profile)
//	value, err := db.Retrieve([]byte("user:42"))
package rhik

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Errors surfaced by the API.
var (
	// ErrNotFound reports a retrieve/delete of an absent key.
	ErrNotFound = device.ErrNotFound
	// ErrDeviceFull reports that garbage collection cannot reclaim
	// enough space for the write.
	ErrDeviceFull = device.ErrDeviceFull
	// ErrKeyTooLarge reports an empty or oversized key.
	ErrKeyTooLarge = device.ErrKeyTooLarge
	// ErrValueTooLarge reports a value exceeding one erase block.
	ErrValueTooLarge = device.ErrValueTooLarge
	// ErrClosed reports use after Close.
	ErrClosed = device.ErrClosed
	// ErrCollision reports the paper's uncorrectable signature
	// collision: the application must retry with a different key.
	ErrCollision = index.ErrCollision
	// ErrNoIterator reports Iterate without iterator-mode signatures.
	ErrNoIterator = device.ErrNoIterator
	// ErrPrefixTooShort reports Iterate with a prefix shorter than
	// Options.IteratorPrefixLen: keys are grouped by that many leading
	// bytes, so a shorter prefix has no group to scan.
	ErrPrefixTooShort = device.ErrPrefixTooShort
)

// IndexScheme selects the in-device index.
type IndexScheme int

// Index schemes.
const (
	// RHIK is the paper's re-configurable two-level hash index.
	RHIK IndexScheme = iota
	// MultiLevel is the Samsung-KVSSD-style multi-level hash baseline.
	MultiLevel
	// LSM is the LSM-tree-based index (PinK-style) the paper contrasts
	// hash-based indexing against.
	LSM
)

// Options configures an emulated KVSSD.
type Options struct {
	// Capacity is the emulated device capacity in bytes (default 1 GiB),
	// divided evenly across shards.
	Capacity int64
	// Index selects the indexing scheme (default RHIK).
	Index IndexScheme
	// Shards is the number of independently locked and clocked device
	// shards the key space is partitioned across by signature bits. It
	// must be a power of two; the default is the largest power of two
	// not exceeding runtime.GOMAXPROCS(0). Shards: 1 reproduces the
	// unsharded device exactly.
	Shards int
	// CacheBudget bounds the device DRAM available to the index
	// (default 10 MB, the paper's Fig. 5 budget), divided across shards.
	CacheBudget int64
	// AnticipatedKeys pre-sizes RHIK's directory via Eq. 2 (divided
	// across shards); zero starts minimal and lets re-configuration
	// grow it.
	AnticipatedKeys int64
	// OccupancyThreshold is RHIK's resize trigger in (0,1] (default 0.8).
	OccupancyThreshold float64
	// HopRange is the record layer's hopscotch neighborhood (default 32).
	HopRange int
	// SignatureBits is the key-signature width: 64 (default) or 128.
	SignatureBits int
	// IteratorPrefixLen, when non-zero, enables prefix iteration by
	// deriving signatures from a key prefix of this many bytes (§VI).
	IteratorPrefixLen int
	// CheckpointEveryOps takes an automatic durability checkpoint every
	// N mutations device-wide (0 = only on Close/Checkpoint); each
	// shard checkpoints every N/Shards of its own mutations.
	CheckpointEveryOps int64
	// IncrementalResize grows the index lazily (bounded per-command
	// migration work) instead of halting the queue for a full
	// migration — the paper's "real-time index scaling" extension.
	IncrementalResize bool
	// ValueCacheBudget, when positive, enables the hot-value DRAM tier
	// (divided across shards): a byte-budgeted cache of recently read
	// values consulted before the index by every read tier, so hot GETs
	// cost zero flash reads. Invalidated before any overwrite
	// acknowledges; 0 (the default) disables it and keeps the read path
	// byte-identical to previous releases.
	ValueCacheBudget int64
	// WAL configures the durable write front. Zero value = disabled: the
	// emulated device is purely in-memory and all data dies with the
	// process, exactly as before.
	WAL WALOptions
}

// WALOptions configures the per-shard write-ahead log. The emulated
// flash is volatile — it lives in process memory — so the WAL is what
// makes acknowledged writes survive a real process crash: mutations are
// journaled to real files under Dir before they are acknowledged, and
// Open replays the retained log into the fresh device before serving.
type WALOptions struct {
	// Dir is the log root (one subdirectory per shard). Empty disables
	// the WAL.
	Dir string
	// Fsync is the durability policy: "always" (default; every
	// acknowledged write survives power loss), "group" (acknowledged
	// writes are in the OS page cache, synced when a commit burst
	// drains — survives process kill, not power loss), or "none" (sync
	// only on Close).
	Fsync string
	// SegmentSize rotates log segments at this many bytes (default 4 MiB).
	SegmentSize int64
}

// DB is an open emulated KVSSD. Methods are safe for concurrent use:
// commands serialize per shard, as they would on one hardware channel
// group, and commands on different shards run in parallel.
type DB struct {
	set *shard.Set
}

// defaultShards is the largest power of two ≤ runtime.GOMAXPROCS(0).
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Open creates a fresh device (all flash erased).
func Open(opts Options) (*DB, error) {
	set, err := OpenSet(opts)
	if err != nil {
		return nil, err
	}
	return &DB{set: set}, nil
}

// OpenSet creates a fresh device and returns the raw sharded front-end
// instead of the DB wrapper. In-module tools that dispatch work by
// shard — the network server keys its worker pool on Set.RouteKey —
// use this; applications should use Open.
func OpenSet(opts Options) (*shard.Set, error) {
	n := opts.Shards
	if n == 0 {
		n = defaultShards()
	}
	if n < 1 || n&(n-1) != 0 {
		return nil, errors.New("rhik: Shards must be a power of two")
	}
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = 1 << 30
	}
	cache := opts.CacheBudget
	if cache == 0 {
		cache = 10 << 20
	}
	ckpt := opts.CheckpointEveryOps
	if ckpt > 0 {
		ckpt = (ckpt + int64(n) - 1) / int64(n)
	}
	cfg := device.Config{
		Capacity:           capacity / int64(n),
		CacheBudget:        cache / int64(n),
		AnticipatedKeys:    opts.AnticipatedKeys / int64(n),
		OccupancyThreshold: opts.OccupancyThreshold,
		HopRange:           opts.HopRange,
		CheckpointEveryOps: ckpt,
		IncrementalResize:  opts.IncrementalResize,
		ValueCacheBudget:   opts.ValueCacheBudget / int64(n),
	}
	switch opts.Index {
	case RHIK:
		cfg.Index = device.IndexRHIK
	case MultiLevel:
		cfg.Index = device.IndexMultiLevel
	case LSM:
		cfg.Index = device.IndexLSM
	default:
		return nil, errors.New("rhik: unknown index scheme")
	}
	bits := opts.SignatureBits
	if bits == 0 {
		bits = 64
	}
	cfg.SigScheme = index.SigScheme{Bits: bits, PrefixLen: opts.IteratorPrefixLen}
	if err := cfg.SigScheme.Validate(); err != nil {
		return nil, err
	}
	set, err := shard.New(n, cfg)
	if err != nil {
		return nil, err
	}
	if opts.WAL.Dir != "" {
		wopts := wal.Options{SegmentSize: opts.WAL.SegmentSize}
		if opts.WAL.Fsync != "" {
			wopts.Fsync, err = wal.ParsePolicy(opts.WAL.Fsync)
			if err != nil {
				set.Close()
				return nil, err
			}
		}
		if _, err := set.AttachWAL(opts.WAL.Dir, wopts); err != nil {
			set.Close()
			return nil, err
		}
	}
	return set, nil
}

// Shards reports the shard count the key space is partitioned across.
func (db *DB) Shards() int { return db.set.N() }

// Store writes a key-value pair synchronously: the call observes the
// command's full simulated round trip on the owning shard.
func (db *DB) Store(key, value []byte) error {
	return db.set.Store(key, value)
}

// Retrieve returns a copy of the value stored under key.
func (db *DB) Retrieve(key []byte) ([]byte, error) {
	return db.set.Retrieve(key)
}

// Delete removes key. ErrNotFound if absent.
func (db *DB) Delete(key []byte) error {
	return db.set.Delete(key)
}

// Exist reports whether key is stored. The device answers from key
// signatures and verifies the stored key, so the answer is exact.
func (db *DB) Exist(key []byte) (bool, error) {
	return db.set.Exist(key)
}

// Entry is one key (and value) produced by Iterate.
type Entry struct {
	Key   []byte
	Value []byte
}

// Iterate enumerates keys sharing prefix, sorted, with values. Requires
// Options.IteratorPrefixLen > 0 and a prefix at least that long
// (ErrNoIterator, ErrPrefixTooShort). The scan fans out to every shard
// and merges the per-shard sorted streams.
func (db *DB) Iterate(prefix []byte) ([]Entry, error) {
	entries, err := db.set.Iterate(prefix)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{Key: e.Key, Value: e.Value}
	}
	return out, nil
}

// Checkpoint makes all accepted writes durable and persists the index
// directory on every shard, bounding what a crash can lose.
func (db *DB) Checkpoint() error { return db.set.Checkpoint() }

// Restart simulates a power cycle followed by crash recovery. Writes
// still in a shard's volatile page buffer are lost; everything
// programmed to flash — including all checkpointed state — survives.
func (db *DB) Restart() error { return db.set.Restart() }

// Close checkpoints and shuts the device down.
func (db *DB) Close() error { return db.set.Close() }

// Elapsed reports the total simulated device time consumed so far:
// shards run in parallel, so this is the slowest shard's timeline, not
// the sum.
func (db *DB) Elapsed() time.Duration {
	return time.Duration(int64(db.set.Elapsed()))
}

// Device exposes the first shard's emulated device for experiments and
// tools that need raw access (benchmark harness, cmd/kvcli). With
// Shards > 1 it covers only that shard; per-device experiments should
// open the DB with Shards: 1.
func (db *DB) Device() *device.Device { return db.set.Shard(0).Device() }
