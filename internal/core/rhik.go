// Package core implements RHIK, the paper's primary contribution: a
// two-level, re-configurable hash index for KVSSDs (§IV).
//
// The directory layer lives in SSD DRAM: D entries, selected by the d =
// log2(D) least-significant bits of the 64-bit key signature (the
// "variable hash function"). Each entry points at one flash page holding
// a record-layer hopscotch hash table of exactly R records (Eq. 1), so
// any lookup costs at most one flash read: directory access is free,
// and the record table is either cached in DRAM or one page away.
//
// When total occupancy crosses the configured threshold (80 % by
// default), the index re-configures: the directory doubles, each old
// bucket's records split between two new buckets using only their stored
// key signatures — the KV pairs on flash are never touched — and the old
// index pages are invalidated for garbage collection (§IV-A2).
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/dram"
	"repro/internal/epoch"
	"repro/internal/hopscotch"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Config parameterizes a RHIK instance.
type Config struct {
	// PageSize is the flash page size; record tables are sized to fill
	// exactly one page (Eq. 1).
	PageSize int
	// HopRange is the hopscotch neighborhood H (default 32, §IV-A1).
	HopRange int
	// SigScheme selects signature width and iterator mode.
	SigScheme index.SigScheme
	// AnticipatedKeys sizes the initial directory via Eq. 2. Zero means
	// a minimal (single-bucket) index that grows on demand — the
	// conservative initialization the paper recommends for unknown
	// workloads.
	AnticipatedKeys int64
	// OccupancyThreshold triggers resizing (default 0.80).
	OccupancyThreshold float64
	// CacheBudget is the SSD DRAM budget, in bytes, for record tables.
	CacheBudget int64
	// CPUPerOp models the firmware cost of hashing and probing.
	CPUPerOp sim.Duration
	// MigrateCPUPerRecord models the firmware cost of re-inserting one
	// record during a resize migration (signature re-use makes this a
	// DRAM-speed operation; flash I/O is charged separately).
	MigrateCPUPerRecord sim.Duration
	// IncrementalResize enables lazy ("real-time") re-configuration: the
	// directory doubles immediately and buckets migrate as they are
	// touched, plus MigrateStepBuckets per operation in the background —
	// the paper's §VI future-work direction, implemented here so the
	// tail-latency trade-off can be measured against the default
	// stop-the-world migration.
	IncrementalResize bool
	// MigrateStepBuckets is the background migration quota per operation
	// in incremental mode (default 4).
	MigrateStepBuckets int
	// Reclaim, when set, defers pool reuse of record tables that were
	// reader-reachable until the epoch domain proves no optimistic reader
	// can still alias them. Nil keeps the original immediate recycling
	// (safe when the caller serializes all access, as in the tests that
	// drive RHIK directly).
	Reclaim *epoch.Domain
}

// Defaults applied by New.
const (
	DefaultHopRange            = 32
	DefaultOccupancyThreshold  = 0.80
	DefaultCPUPerOp            = sim.Microsecond
	DefaultCacheBudget         = 10 << 20
	DefaultMigrateCPUPerRecord = 20 * sim.Nanosecond
)

func (c *Config) applyDefaults() {
	if c.HopRange == 0 {
		c.HopRange = DefaultHopRange
	}
	if c.SigScheme.Bits == 0 {
		c.SigScheme = index.DefaultSigScheme
	}
	if c.OccupancyThreshold == 0 {
		c.OccupancyThreshold = DefaultOccupancyThreshold
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = DefaultCacheBudget
	}
	if c.CPUPerOp == 0 {
		c.CPUPerOp = DefaultCPUPerOp
	}
	if c.MigrateCPUPerRecord == 0 {
		c.MigrateCPUPerRecord = DefaultMigrateCPUPerRecord
	}
	if c.MigrateStepBuckets == 0 {
		c.MigrateStepBuckets = 4
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.PageSize < 2*hopscotch.SlotSizeWide {
		return fmt.Errorf("core: page size %d too small for record tables", c.PageSize)
	}
	if c.OccupancyThreshold < 0.05 || c.OccupancyThreshold > 1.0 {
		return fmt.Errorf("core: occupancy threshold %.2f outside (0.05, 1.0]", c.OccupancyThreshold)
	}
	if c.AnticipatedKeys < 0 {
		return fmt.Errorf("core: negative anticipated keys")
	}
	return c.SigScheme.Validate()
}

// RecordsPerTable computes Eq. 1: R = ⌊p / (kh + ppa + hi)⌋.
func RecordsPerTable(pageSize int, wide bool) int {
	slot := hopscotch.SlotSize
	if wide {
		slot = hopscotch.SlotSizeWide
	}
	return pageSize / slot
}

// DirectoryEntries computes Eq. 2: D = anticipated keys / R, rounded up
// to the next power of two so the variable hash function can use plain
// low signature bits.
func DirectoryEntries(anticipatedKeys int64, recordsPerTable int) int {
	if anticipatedKeys <= 0 {
		return 1
	}
	d := (anticipatedKeys + int64(recordsPerTable) - 1) / int64(recordsPerTable)
	if d < 1 {
		d = 1
	}
	// Round up to a power of two.
	if d&(d-1) != 0 {
		d = 1 << bits.Len64(uint64(d))
	}
	return int(d)
}

type dirEntry struct {
	ppa nand.PPA // flash address of the persisted record table
	has bool     // whether a persisted copy exists
}

type tableEntry struct {
	table *hopscotch.Table
	dirty bool
	// h is the entry's cache touch handle, set by publish before the
	// entry becomes reachable, so an optimistic reader that validates
	// can replicate the locked path's hit accounting and CLOCK recency
	// without the key map. The zero Handle marks a never-published entry.
	h dram.Handle[*tableEntry]
}

// generation is one directory generation: the dirEntry slice plus, per
// bucket, an atomically-published pointer to the DRAM-resident record
// table (nil when the bucket is not cached). Optimistic readers load
// the current generation once, follow resident pointers, and validate
// with the table's seqlock; writers build a new generation on resize
// and swap it in atomically, so readers never see a half-migrated
// directory. The cache pointer is fixed per generation so lock-free
// commits can touch CLOCK state without racing the writer's cache swap.
type generation struct {
	dirs     []dirEntry
	resident []atomic.Pointer[tableEntry]
	cache    *dram.Cache[*tableEntry]
}

func newGeneration(d int) *generation {
	return &generation{
		dirs:     make([]dirEntry, d),
		resident: make([]atomic.Pointer[tableEntry], d),
	}
}

// RHIK is the re-configurable hash index. Mutations are single-threaded
// — the device firmware serializes them under the shard write lock —
// but PeekOptimistic/RevalidateOptimistic/CommitOptimistic may run
// lock-free from concurrent readers, validated by the per-table seqlock
// and the atomically-swapped directory generation.
type RHIK struct {
	cfg     Config
	env     index.Env
	reclaim *epoch.Domain // nil: recycle pools immediately

	r     int                        // records per table (Eq. 1)
	dBits int                        // log2(D)
	gen   atomic.Pointer[generation] // current directory generation
	cache *dram.Cache[*tableEntry]   // == gen.Load().cache; writer convenience
	live  map[nand.PPA]uint64        // persisted page -> bucket, for index-zone GC
	pool  []*hopscotch.Table         // recycled tables; avoids per-miss allocation
	epool []*tableEntry              // recycled cache entries; keeps misses alloc-free
	wbuf  []byte                     // spare page-image buffer, nil while checked out; see writeTable
	scan  []uint64                   // PrefixRecords' filter scratch, so its result is one exact-size copy
	mig   *migration                 // in-flight incremental re-configuration

	n          int64 // total records
	collisions int64
	resizes    []index.ResizeEvent
	ioErr      error       // first error stashed by the eviction write-back path
	ioErrFlag  atomic.Bool // lock-free mirror of ioErr != nil for readers
}

// g returns the current generation. Writer-side shorthand.
func (r *RHIK) g() *generation { return r.gen.Load() }

var _ index.Index = (*RHIK)(nil)
var _ index.SharedReader = (*RHIK)(nil)
var _ index.Resizer = (*RHIK)(nil)
var _ index.Relocator = (*RHIK)(nil)
var _ index.Checkpointer = (*RHIK)(nil)
var _ index.StatsProvider = (*RHIK)(nil)
var _ index.RecordEnumerator = (*RHIK)(nil)

// New builds a RHIK instance over the given environment.
func New(cfg Config, env index.Env) (*RHIK, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &RHIK{
		cfg:     cfg,
		env:     env,
		reclaim: cfg.Reclaim,
		r:       RecordsPerTable(cfg.PageSize, cfg.SigScheme.Wide()),
		live:    make(map[nand.PPA]uint64),
	}
	d := DirectoryEntries(cfg.AnticipatedKeys, r.r)
	r.dBits = bits.Len64(uint64(d)) - 1
	g := newGeneration(d)
	g.cache = r.newCache(g)
	r.gen.Store(g)
	r.cache = g.cache
	return r, nil
}

// Name implements index.Index.
func (r *RHIK) Name() string { return "rhik" }

// Len implements index.Index.
func (r *RHIK) Len() int64 { return r.n }

// RecordsPerTable reports R for this instance.
func (r *RHIK) RecordsPerTable() int { return r.r }

// DirEntries reports the current directory size D.
func (r *RHIK) DirEntries() int { return len(r.g().dirs) }

// Capacity reports the total record capacity D·R.
func (r *RHIK) Capacity() int64 { return int64(r.DirEntries()) * int64(r.r) }

// Occupancy reports Len/Capacity.
func (r *RHIK) Occupancy() float64 { return float64(r.n) / float64(r.Capacity()) }

// newCache builds a record-table cache whose write-back path targets the
// given generation. The closure binds g so that evictions during a
// resize write through to the directory generation that owns them.
// Eviction order matters for lock-free readers: unpublish the resident
// pointer, poison the table's version counter, then write back and
// retire — an optimistic probe racing the eviction fails either the
// pointer re-check or the seqlock validation, never reads a recycled
// table.
func (r *RHIK) newCache(g *generation) *dram.Cache[*tableEntry] {
	return dram.New(r.cfg.CacheBudget, func(key uint64, e *tableEntry, _ int64) {
		g.resident[key].Store(nil)
		e.table.Invalidate()
		if e.dirty {
			if err := r.writeTable(g.dirs, key, e); err != nil {
				r.setIOErr(err)
			}
		}
		r.retireEntry(e)
	})
}

// setIOErr stashes the first deferred write-back error and raises the
// lock-free mirror flag so optimistic readers escalate until a writer
// surfaces the error via checkIO.
func (r *RHIK) setIOErr(err error) {
	if r.ioErr == nil {
		r.ioErr = err
	}
	r.ioErrFlag.Store(true)
}

// retireEntry returns an entry that may have been reader-reachable to
// the pools — immediately without a reclaim domain, otherwise deferred
// past every pinned reader epoch. Everything that was ever published
// comes back through here, which is what lets takeTable's callers
// rewrite a pooled table with hopscotch's plain-store Reset/DecodeFrom:
// no optimistic reader can still hold it, and it is published again
// only by publish's atomic pointer store, after the rewrite.
func (r *RHIK) retireEntry(e *tableEntry) {
	if r.reclaim == nil {
		r.recycleEntry(e)
		return
	}
	r.reclaim.Retire(func() { r.recycleEntry(e) })
}

// publish makes bucket's cached entry reachable by optimistic readers.
// Call after every cache.Put of a non-empty table.
func (r *RHIK) publish(g *generation, bucket uint64, e *tableEntry) {
	if h, ok := g.cache.Handle(bucket); ok {
		e.h = h
		g.resident[bucket].Store(e)
	}
}

// recycle returns an evicted table to the pool. Callers follow a
// use-immediately discipline after loadTable, so an evicted table is
// never still referenced.
func (r *RHIK) recycle(t *hopscotch.Table) {
	if len(r.pool) < 64 {
		r.pool = append(r.pool, t)
	}
}

// takeTable pops a pooled table (contents undefined) or allocates one.
// Callers either DecodeFrom (which overwrites every slot) or Reset.
func (r *RHIK) takeTable() *hopscotch.Table {
	if n := len(r.pool); n > 0 {
		t := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return t
	}
	return r.newTable()
}

// takeEmptyTable pops a pooled table and empties it.
func (r *RHIK) takeEmptyTable() *hopscotch.Table {
	t := r.takeTable()
	t.Reset()
	return t
}

// takeEntry wraps t in a pooled cache entry (dirty cleared), so cache
// misses on the lookup path allocate nothing in steady state.
func (r *RHIK) takeEntry(t *hopscotch.Table) *tableEntry {
	if n := len(r.epool); n > 0 {
		e := r.epool[n-1]
		r.epool = r.epool[:n-1]
		e.table = t
		e.dirty = false
		return e
	}
	return &tableEntry{table: t}
}

// recycleEntry returns an entry, its table and (if it was ever cached)
// its cache node to their pools. The node goes to the current cache,
// which after a resize is not the one it came out of. That is harmless:
// a node holds nothing of its cache — the Put that reuses it rewrites
// key, value, size and ring position — and by the time an entry gets
// here no reader of either generation can still redeem its handle.
func (r *RHIK) recycleEntry(e *tableEntry) {
	r.recycle(e.table)
	e.table = nil
	r.cache.Recycle(e.h)
	e.h = dram.Handle[*tableEntry]{}
	if len(r.epool) < 64 {
		r.epool = append(r.epool, e)
	}
}

// writeTable persists a record table and repoints its directory entry.
// Every table of one RHIK has the same image size and Env.AppendPage
// copies what it programs, so write-backs share one encode buffer. They
// do nest, though: AppendPage may run GC, whose relocations come back
// into the index, page a table in and evict another dirty one. The
// buffer is therefore checked out for the duration of the call, and a
// nested write-back, finding none, allocates its own.
func (r *RHIK) writeTable(dirs []dirEntry, bucket uint64, e *tableEntry) error {
	buf := r.wbuf
	r.wbuf = nil
	if buf == nil {
		buf = make([]byte, e.table.EncodedBytes())
	}
	e.table.EncodeTo(buf)
	ppa, err := r.env.AppendPage(buf)
	r.wbuf = buf
	if err != nil {
		return err
	}
	if dirs[bucket].has {
		r.env.Invalidate(dirs[bucket].ppa)
		delete(r.live, dirs[bucket].ppa)
	}
	dirs[bucket] = dirEntry{ppa: ppa, has: true}
	r.live[ppa] = bucket
	e.dirty = false
	return nil
}

func (r *RHIK) bucketOf(sig index.Sig) uint64 {
	return sig.Lo & uint64(len(r.g().dirs)-1)
}

func (r *RHIK) newTable() *hopscotch.Table {
	if r.cfg.SigScheme.Wide() {
		return hopscotch.NewWide(r.r, r.cfg.HopRange)
	}
	return hopscotch.New(r.r, r.cfg.HopRange)
}

// loadTable returns the record table for bucket, fetching it from flash
// (at most one read — the paper's guarantee) when not DRAM-resident, and
// always leaves it cached: the callers go on to mutate it or hand its
// records out.
func (r *RHIK) loadTable(bucket uint64) (*tableEntry, error) {
	if e, ok := r.cache.Get(bucket); ok {
		return e, nil
	}
	g := r.g()
	if !g.dirs[bucket].has {
		return r.install(g, bucket, nil)
	}
	data, err := r.env.ReadPage(g.dirs[bucket].ppa)
	if err != nil {
		return nil, err
	}
	return r.install(g, bucket, data)
}

// install caches and publishes bucket's table, decoded from its page
// image, or empty when image is nil. The decode comes before the cache
// Put: the eviction that Put may run writes a table back, and that
// write-back may move flash under image.
func (r *RHIK) install(g *generation, bucket uint64, image []byte) (*tableEntry, error) {
	t := r.takeTable()
	if image == nil {
		t.Reset()
	} else if err := t.DecodeFrom(image); err != nil {
		r.recycle(t)
		return nil, err
	}
	e := r.takeEntry(t)
	r.cache.Put(bucket, e, int64(t.EncodedBytes()))
	r.publish(g, bucket, e)
	return e, nil
}

// installOnRead is the rule for a read that missed the cache: install
// the table only when that evicts nothing, or when the CLOCK victim is
// dirty — its write-back is due anyway, and the read pays it instead of
// the next write. Otherwise the read answers from the page image and
// leaves the cache alone. A cache holding at most one table always has
// room: it is the over-budget singleton, whose one entry every miss
// replaces.
func (r *RHIK) installOnRead() bool {
	if r.cache.Len() <= 1 {
		return true
	}
	size := hopscotch.EncodedSize(r.r)
	if r.cfg.SigScheme.Wide() {
		size = hopscotch.EncodedSizeWide(r.r)
	}
	v, evicts := r.cache.Victim(int64(size))
	return !evicts || v.dirty
}

func (r *RHIK) checkIO() error {
	if r.ioErr != nil {
		err := r.ioErr
		r.ioErr = nil
		r.ioErrFlag.Store(false)
		return err
	}
	return nil
}

// Insert implements index.Index.
func (r *RHIK) Insert(sig index.Sig, rp uint64) (old uint64, replaced bool, err error) {
	r.env.ChargeCPU(r.cfg.CPUPerOp)
	if err := r.prepare(sig); err != nil {
		return 0, false, err
	}
	e, err := r.loadTable(r.bucketOf(sig))
	if err != nil {
		return 0, false, err
	}
	old, _ = e.table.GetWide(sig.Lo, sig.Hi)
	replaced, err = e.table.PutWide(sig.Lo, sig.Hi, rp)
	if err != nil {
		if errors.Is(err, hopscotch.ErrNoSlot) {
			r.collisions++
			return 0, false, index.ErrCollision
		}
		return 0, false, err
	}
	e.dirty = true
	if !replaced {
		r.n++
		old = 0
	}
	if ioErr := r.checkIO(); ioErr != nil {
		return old, replaced, ioErr
	}
	return old, replaced, nil
}

// Lookup implements index.Index: the lookup that precedes a mutation,
// so it leaves the bucket's table cached for the Insert or Delete that
// follows it.
func (r *RHIK) Lookup(sig index.Sig) (uint64, bool, error) {
	r.env.ChargeCPU(r.cfg.CPUPerOp)
	if err := r.prepare(sig); err != nil {
		return 0, false, err
	}
	e, err := r.loadTable(r.bucketOf(sig))
	if err != nil {
		return 0, false, err
	}
	rp, ok := e.table.GetWide(sig.Lo, sig.Hi)
	return rp, ok, r.checkIO()
}

// Get implements index.Index: the read-only lookup. A cache hit counts
// and answers as Lookup's does. A miss reads the bucket's page — the
// one flash read, charged as Lookup charges it — and then either
// installs the table (installOnRead) or, leaving the cache untouched,
// answers from the page image. A bucket that has no page holds nothing,
// and nothing is installed for it.
func (r *RHIK) Get(sig index.Sig) (uint64, bool, error) {
	r.env.ChargeCPU(r.cfg.CPUPerOp)
	if err := r.prepare(sig); err != nil {
		return 0, false, err
	}
	bucket := r.bucketOf(sig)
	e, ok := r.cache.Get(bucket)
	if !ok {
		g := r.g()
		if !g.dirs[bucket].has {
			return 0, false, r.checkIO()
		}
		data, err := r.env.ReadPage(g.dirs[bucket].ppa)
		if err != nil {
			return 0, false, err
		}
		if !r.installOnRead() {
			rp, found, err := hopscotch.ProbeImage(data, r.r, r.cfg.SigScheme.Wide(), sig.Lo, sig.Hi)
			if err != nil {
				return 0, false, err
			}
			return rp, found, r.checkIO()
		}
		if e, err = r.install(g, bucket, data); err != nil {
			return 0, false, err
		}
	}
	rp, found := e.table.GetWide(sig.Lo, sig.Hi)
	return rp, found, r.checkIO()
}

// Delete implements index.Index.
func (r *RHIK) Delete(sig index.Sig) (uint64, bool, error) {
	r.env.ChargeCPU(r.cfg.CPUPerOp)
	if err := r.prepare(sig); err != nil {
		return 0, false, err
	}
	e, err := r.loadTable(r.bucketOf(sig))
	if err != nil {
		return 0, false, err
	}
	rp, ok := e.table.DeleteWide(sig.Lo, sig.Hi)
	if ok {
		e.dirty = true
		r.n--
	}
	return rp, ok, r.checkIO()
}

// Exist implements index.Index: the signature-reuse membership check
// (§IV-A3), read-only like Get. False positives are possible (two keys
// sharing a signature); false negatives are not.
func (r *RHIK) Exist(sig index.Sig) (bool, error) {
	_, ok, err := r.Get(sig)
	return ok, err
}

// SharedLookupReady implements index.SharedReader: a lookup for sig can
// run under the shard read lock when no migration is in flight, no
// deferred write-back error is pending, and the bucket's record table is
// DRAM-resident. The check is pure — it charges no simulated time and
// touches no counters — so a false answer costs nothing before the shard
// falls back to the exclusive path. Once true, Get's only mutations
// are atomics: the cache hit counter and the entry's CLOCK reference bit
// (eviction cannot intervene, because only exclusive writers evict).
func (r *RHIK) SharedLookupReady(sig index.Sig) bool {
	return r.mig == nil && r.ioErr == nil && r.cache.Contains(r.bucketOf(sig))
}

// OptProbe is the result of a lock-free index probe. The RP/Found pair
// is meaningful only while RevalidateOptimistic keeps returning true;
// the unexported fields anchor the probed generation slot and seqlock
// snapshot for those later validations. Plain value type: it must not
// escape to the heap on the device's 0-alloc GET path.
type OptProbe struct {
	RP    uint64
	Found bool

	ref   *tableEntry
	slot  *atomic.Pointer[tableEntry]
	seq   uint64
	cache *dram.Cache[*tableEntry]
}

// PeekOptimistic probes the index for sig without any lock and without
// charging simulated time or touching counters. The caller must hold an
// epoch pin on the device's reclaim domain for the whole probe/validate
// lifetime, so the referenced table cannot be recycled underneath it.
//
// OptOK means the probe validated at return: RP/Found were read from a
// stable table version reachable from the current directory generation.
// OptRetry means a concurrent mutation interfered; retry immediately.
// OptNeedExclusive means no lock-free read can succeed (bucket not
// resident, bucket not yet migrated into the current generation, or a
// deferred write-back error is pending) — escalate to the exclusive
// path.
func (r *RHIK) PeekOptimistic(sig index.Sig) (OptProbe, index.OptStatus) {
	if r.ioErrFlag.Load() {
		return OptProbe{}, index.OptNeedExclusive
	}
	g := r.gen.Load()
	b := sig.Lo & uint64(len(g.dirs)-1)
	slot := &g.resident[b]
	ref := slot.Load()
	if ref == nil {
		// Not DRAM-resident in this generation: either a cache miss or a
		// bucket the incremental migration has not produced yet. Both need
		// the exclusive path (flash load / migration step).
		return OptProbe{}, index.OptNeedExclusive
	}
	t := ref.table
	v, ok := t.SeqSnapshot()
	if !ok {
		return OptProbe{}, index.OptRetry
	}
	rp, found := t.GetOptimistic(sig.Lo, sig.Hi)
	if !t.SeqValidate(v) || slot.Load() != ref {
		return OptProbe{}, index.OptRetry
	}
	return OptProbe{RP: rp, Found: found, ref: ref, slot: slot, seq: v, cache: g.cache}, index.OptOK
}

// RevalidateOptimistic reports whether a probe's result is still
// current: the table version is unchanged and the entry is still the
// one published for its bucket. The device calls it after copying
// dependent data (the record page) and before acting on it, which is
// the read's linearization point. Requires the same epoch pin as the
// probe.
func (r *RHIK) RevalidateOptimistic(p OptProbe) bool {
	return p.ref.table.SeqValidate(p.seq) && p.slot.Load() == p.ref
}

// CommitOptimistic applies the cache side effects a locked Lookup would
// have had — one hit, CLOCK reference bit set — for a probe that
// validated, against the cache generation the probe actually read. Call
// exactly once per successful optimistic operation.
func (r *RHIK) CommitOptimistic(p OptProbe) {
	p.cache.TouchHit(p.ref.h)
}

// OptimisticLookupCost is the simulated CPU charge for one optimistic
// lookup, identical to the locked path's per-op charge so the two paths
// produce byte-identical timelines.
func (r *RHIK) OptimisticLookupCost() sim.Duration { return r.cfg.CPUPerOp }

// Flush writes every dirty cached table to flash. Entries stay cached.
// An in-flight incremental migration is drained first so the persisted
// state is single-generation.
func (r *RHIK) Flush() error {
	if err := r.drainMigration(); err != nil {
		return err
	}
	var firstErr error
	dirs := r.g().dirs
	r.cache.Range(func(key uint64, e *tableEntry, _ int64) bool {
		if e.dirty {
			if err := r.writeTable(dirs, key, e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	return r.checkIO()
}

// IndexStats implements index.StatsProvider.
func (r *RHIK) IndexStats() index.Stats {
	d := r.DirEntries()
	return index.Stats{
		Records:    r.n,
		Collisions: r.collisions,
		Resizes:    len(r.resizes),
		DirEntries: d,
		// Directory entries cost ~5 bytes (a flash page address) each in
		// integrated DRAM, plus the record-table cache.
		DRAMBytes: int64(d)*5 + r.cache.Used(),
		Cache:     r.cache.Stats(),
	}
}

// CacheStats exposes the record-table cache counters (Fig. 5a).
func (r *RHIK) CacheStats() dram.Stats { return r.cache.Stats() }

// ResetCacheStats zeroes cache counters between experiment phases.
func (r *RHIK) ResetCacheStats() { r.cache.ResetStats() }

// ResizeCache implements index.CacheResizer, adjusting the DRAM budget
// for cached pages at runtime (dirty entries evicted by a shrink are
// written back through the usual path).
func (r *RHIK) ResizeCache(budget int64) { r.cache.Resize(budget) }
