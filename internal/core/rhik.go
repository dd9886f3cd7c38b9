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
// index pages are invalidated for garbage collection (§IV-A2). The
// doubled directory is published at once and its buckets split as
// operations touch them (incremental.go); the paper's stop-the-world
// doubling is that migration drained inside the halt.
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
	// HaltResize drains each re-configuration's migration inside Resize,
	// the paper's stop-the-world doubling (§IV-A2). By default the
	// directory doubles immediately and buckets migrate as they are
	// touched, plus MigrateStepBuckets per operation in the background —
	// the paper's §VI "real-time index scaling" direction.
	HaltResize bool
	// MigrateStepBuckets is the background migration quota per operation
	// (default 4).
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

// dirEntry is one directory slot: the flash address of the bucket's
// persisted record table, plus one, or zero while the bucket has no
// page. It is atomic so lock-free readers can follow it to the page.
type dirEntry struct{ w atomic.Uint64 }

// page returns the bucket's page and whether it has one.
func (d *dirEntry) page() (nand.PPA, bool) {
	if w := d.w.Load(); w != 0 {
		return nand.PPA(w - 1), true
	}
	return 0, false
}

func (d *dirEntry) set(p nand.PPA) { d.w.Store(uint64(p) + 1) }
func (d *dirEntry) clear()         { d.w.Store(0) }

// tableEntry is a cached record table. It embeds its cache node, so an
// entry, its table and its place in the CLOCK ring are pooled together
// and share one lifetime (see retireEntry).
type tableEntry struct {
	dram.Node
	table *hopscotch.Table
	dirty bool
}

// generation is one directory generation: the dirEntry slice plus, per
// bucket, an atomically-published pointer to the DRAM-resident record
// table (nil when the bucket is not cached). Optimistic readers load
// the current generation once, follow resident pointers, and validate
// with the table's seqlock — or, for a bucket with no resident table,
// read its page and validate the directory slot; writers build a new
// generation on resize and swap it in atomically, so readers never see
// a half-migrated directory. The cache pointer is fixed per generation
// so lock-free commits can touch CLOCK state without racing the
// writer's cache swap.
type generation struct {
	dirs      []dirEntry
	resident  []atomic.Pointer[tableEntry]
	cache     *dram.Cache[*tableEntry]
	migrating atomic.Bool // its buckets are still splitting out of the previous generation

	// readMiss is the read-miss rule as the writer last published it for
	// the lock-free tier: the clean CLOCK victim when a read miss answers
	// from the page image, nil when it installs; victimHeld reports that
	// the victim stands whatever reference bits readers set
	// (publishReadMiss). The rule* fields are the writer's record of what
	// it published.
	readMiss   atomic.Pointer[tableEntry]
	victimHeld atomic.Bool
	ruleMods   uint64
	ruleVictim *tableEntry
	ruleDirty  bool
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
	peek    index.PagePeeker // env's uncharged page reads; nil: cold probes refuse
	reclaim *epoch.Domain    // nil: recycle pools immediately

	r     int                        // records per table (Eq. 1)
	dBits int                        // log2(D)
	gen   atomic.Pointer[generation] // current directory generation
	cache *dram.Cache[*tableEntry]   // == gen.Load().cache; writer convenience
	live  map[nand.PPA]uint64        // persisted page -> bucket, for index-zone GC
	pool  []*hopscotch.Table         // recycled tables; avoids per-miss allocation
	epool []*tableEntry              // recycled cache entries; keeps misses alloc-free
	wbuf  []byte                     // page-image buffer every write-back encodes into
	scan  []uint64                   // PrefixRecords' filter scratch, so its result is one exact-size copy
	mig   *migration                 // in-flight re-configuration
	busy  bool                       // an exported operation is running; see enter

	n          int64 // total records
	collisions int64
	resizes    []index.ResizeEvent
	ioErr      error       // first error stashed by the eviction write-back path
	ioErrFlag  atomic.Bool // lock-free mirror of ioErr != nil for readers
}

// g returns the current generation. Writer-side shorthand.
func (r *RHIK) g() *generation { return r.gen.Load() }

var _ index.Index = (*RHIK)(nil)
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
	r.peek, _ = env.(index.PagePeeker)
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
// Eviction order matters for lock-free readers: write back, unpublish
// the resident pointer, poison the table's version counter, then
// retire. A probe of the resident table fails the pointer re-check or
// the seqlock validation, never reads a recycled table; and a probe
// that finds the slot empty finds the directory already pointing at the
// written-back page, never at the one the table had outdated.
func (r *RHIK) newCache(g *generation) *dram.Cache[*tableEntry] {
	return dram.New(r.cfg.CacheBudget, func(key uint64, e *tableEntry, _ int64) {
		if e.dirty {
			if err := r.writeTable(g.dirs, key, e); err != nil {
				r.setIOErr(err)
			}
		}
		g.resident[key].Store(nil)
		e.table.Invalidate()
		r.retireEntry(e)
	})
}

// enter marks an exported operation as running and panics if one already
// is: an Env call came back into the index. Garbage collection runs
// between device commands, never inside an index operation, so no Env
// call may re-enter; one that did would evict tables its caller still
// holds. Every operation that can reach the Env brackets itself with
// enter and a deferred exit. The lock-free probes do not: they only
// peek at pages.
func (r *RHIK) enter() {
	if r.busy {
		panic("core: index operation re-entered from inside another; index.Env must not call back into the index")
	}
	r.busy = true
}

// exit ends an exported operation and republishes the read-miss rule
// if the operation changed one of its inputs: the cache's membership,
// hand or budget, or the dirty bit of the victim it last named. Hits
// and updates of tables already dirty leave both alone and pay nothing.
func (r *RHIK) exit() {
	r.busy = false
	if g := r.g(); g.cache.Mods() != g.ruleMods || g.ruleVictim != nil && g.ruleVictim.dirty != g.ruleDirty {
		r.publishReadMiss(g)
	}
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

// put caches bucket's entry in generation g and makes it reachable by
// optimistic readers. The Put never evicts the entry it inserts, so the
// entry is cached when it is published.
func (r *RHIK) put(g *generation, bucket uint64, e *tableEntry) {
	g.cache.Put(bucket, e, int64(e.table.EncodedBytes()))
	g.resident[bucket].Store(e)
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

// recycleEntry returns an entry and its table to their pools. The entry
// is in no cache by now, and the Put that reuses it rewrites its node,
// whichever generation's cache that Put is into.
func (r *RHIK) recycleEntry(e *tableEntry) {
	r.recycle(e.table)
	e.table = nil
	if len(r.epool) < 64 {
		r.epool = append(r.epool, e)
	}
}

// writeTable persists a record table and repoints its directory entry.
// Every table of one RHIK has the same image size and Env.AppendPage
// copies what it programs, so write-backs share one encode buffer.
func (r *RHIK) writeTable(dirs []dirEntry, bucket uint64, e *tableEntry) error {
	if r.wbuf == nil {
		r.wbuf = make([]byte, e.table.EncodedBytes())
	}
	e.table.EncodeTo(r.wbuf)
	ppa, err := r.env.AppendPage(r.wbuf)
	if err != nil {
		return err
	}
	if old, has := dirs[bucket].page(); has {
		r.env.Invalidate(old)
		delete(r.live, old)
	}
	dirs[bucket].set(ppa)
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
	ppa, has := g.dirs[bucket].page()
	if !has {
		return r.install(g, bucket, nil)
	}
	data, err := r.env.ReadPage(ppa)
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
	r.put(g, bucket, e)
	return e, nil
}

// readMissRule is the rule for a read that missed the cache: install
// the table only when that evicts nothing, or when the CLOCK victim is
// dirty — its write-back is due anyway, and the read pays it instead of
// the next write. Otherwise the read answers from the page image and
// leaves the cache alone. A cache holding at most one table always has
// room: it is the over-budget singleton, whose one entry every miss
// replaces. It reports the victim an install would evict (nil: none),
// whether the read installs, and whether the victim is held
// (dram.Cache.Victim).
func (r *RHIK) readMissRule() (victim *tableEntry, install, held bool) {
	if r.cache.Len() <= 1 {
		return nil, true, false
	}
	size := hopscotch.EncodedSize(r.r)
	if r.cfg.SigScheme.Wide() {
		size = hopscotch.EncodedSizeWide(r.r)
	}
	v, evicts, held := r.cache.Victim(int64(size))
	if !evicts {
		return nil, true, false
	}
	return v, v.dirty, held
}

// publishReadMiss applies the read-miss rule and hands the result to
// the lock-free tier: the clean victim when a miss answers from the
// page image, nil when it installs. A lock-free probe answers a miss
// from the image only while that victim still stands: it was held, or
// its reference bit is still clear. Between writer operations readers
// can set reference bits but never clear them, and the victim is the
// first entry from the hand whose bit is clear, or the hand's entry
// when every bit is set; so a victim that stands is the one the rule
// still names, and the probe decides exactly as a locked Get would. A
// locked Get that misses publishes the rule it applies, so a victim
// that hits made stale is replaced by the read it sent to the lock.
func (r *RHIK) publishReadMiss(g *generation) (install bool) {
	v, install, held := r.readMissRule()
	g.ruleMods, g.ruleVictim = g.cache.Mods(), v
	if v != nil {
		g.ruleDirty = v.dirty
	}
	if install {
		v = nil
	}
	g.victimHeld.Store(held)
	g.readMiss.Store(v)
	return install
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
	r.enter()
	defer r.exit()
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
	r.enter()
	defer r.exit()
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
// installs the table (readMissRule) or, leaving the cache untouched,
// answers from the page image, and publishes the rule it applied for
// the lock-free tier. A bucket that has no page holds nothing, and
// nothing is installed for it.
func (r *RHIK) Get(sig index.Sig) (uint64, bool, error) {
	r.enter()
	defer r.exit()
	r.env.ChargeCPU(r.cfg.CPUPerOp)
	if err := r.prepare(sig); err != nil {
		return 0, false, err
	}
	bucket := r.bucketOf(sig)
	e, ok := r.cache.Get(bucket)
	if !ok {
		g := r.g()
		ppa, has := g.dirs[bucket].page()
		if !has {
			return 0, false, r.checkIO()
		}
		data, err := r.env.ReadPage(ppa)
		if err != nil {
			return 0, false, err
		}
		if !r.publishReadMiss(g) {
			rp, found, err := r.imageAnswer(data, sig)
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

// imageAnswer is the answer of a read that leaves the cache alone: sig
// probed in image, its bucket's index page, with no decode. Get gives it
// when the read-miss rule says not to install the table, and
// PeekOptimistic when the rule the writer published still stands, so
// both tiers answer a miss alike.
func (r *RHIK) imageAnswer(image []byte, sig index.Sig) (uint64, bool, error) {
	return hopscotch.ProbeImage(image, r.r, r.cfg.SigScheme.Wide(), sig.Lo, sig.Hi)
}

// Delete implements index.Index.
func (r *RHIK) Delete(sig index.Sig) (uint64, bool, error) {
	r.enter()
	defer r.exit()
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

// OptProbe is the result of a lock-free index probe. The RP/Found pair
// is meaningful only while RevalidateOptimistic keeps returning true;
// the unexported fields anchor the probed generation slot and seqlock
// snapshot, or the directory word, for those later validations. Plain
// value type: it must not escape to the heap on the device's 0-alloc
// GET path.
type OptProbe struct {
	RP    uint64
	Found bool
	// FromPage reports that RP/Found came from the image of the index
	// page Page, as a locked Get that misses the cache and leaves it
	// alone answers: the caller charges that page as one index read.
	FromPage bool
	Page     nand.PPA

	gen    *generation
	bucket uint64
	ref    *tableEntry // the resident table probed; nil when none was
	seq    uint64      // ref's seqlock snapshot
	dir    uint64      // the directory word a probe without ref read
}

// PeekOptimistic probes the index for sig without any lock and without
// charging simulated time or touching counters. The caller must hold an
// epoch pin on the device's reclaim domain for the whole probe/validate
// lifetime, so the referenced table or page cannot be recycled
// underneath it.
//
// A bucket whose table is resident answers from the table. One that is
// not answers as a locked Get would without installing it: from its
// page image (FromPage), or not-found when it has no page.
//
// OptOK means the probe validated at return: RP/Found were read from a
// stable table version or page reachable from the current directory
// generation. OptRetry means a concurrent mutation interfered; retry
// immediately. OptNeedExclusive means no lock-free read can succeed
// (a miss the locked Get would install, a migration in flight, or a
// pending deferred write-back error) — escalate to the exclusive path.
func (r *RHIK) PeekOptimistic(sig index.Sig) (OptProbe, index.OptStatus) {
	if r.ioErrFlag.Load() {
		return OptProbe{}, index.OptNeedExclusive
	}
	g := r.gen.Load()
	b := sig.Lo & uint64(len(g.dirs)-1)
	ref := g.resident[b].Load()
	if ref == nil {
		return r.peekPage(g, b, sig)
	}
	t := ref.table
	v, ok := t.SeqSnapshot()
	if !ok {
		return OptProbe{}, index.OptRetry
	}
	rp, found := t.GetOptimistic(sig.Lo, sig.Hi)
	if !t.SeqValidate(v) || g.resident[b].Load() != ref {
		return OptProbe{}, index.OptRetry
	}
	return OptProbe{RP: rp, Found: found, gen: g, bucket: b, ref: ref, seq: v}, index.OptOK
}

// peekPage is PeekOptimistic for bucket b of generation g with no
// resident table. While g's buckets are still migrating, the slot may
// be one the migration has not produced yet: refuse. A bucket with a
// page is answered from its image only when the read-miss rule says the
// locked Get would not install it, so both tiers decide alike.
func (r *RHIK) peekPage(g *generation, b uint64, sig index.Sig) (OptProbe, index.OptStatus) {
	if r.peek == nil || g.migrating.Load() {
		return OptProbe{}, index.OptNeedExclusive
	}
	p := OptProbe{gen: g, bucket: b, dir: g.dirs[b].w.Load()}
	if p.dir != 0 {
		if v := g.readMiss.Load(); v == nil || v.Referenced() && !g.victimHeld.Load() {
			return OptProbe{}, index.OptNeedExclusive
		}
		p.FromPage, p.Page = true, nand.PPA(p.dir-1)
		image := r.peek.PeekPage(p.Page)
		if image == nil {
			return OptProbe{}, index.OptRetry
		}
		var err error
		if p.RP, p.Found, err = r.imageAnswer(image, sig); err != nil {
			return OptProbe{}, index.OptRetry
		}
	}
	if !r.RevalidateOptimistic(p) {
		return OptProbe{}, index.OptRetry
	}
	return p, index.OptOK
}

// RevalidateOptimistic reports whether a probe's result is still
// current. For a resident table: its version is unchanged and it is
// still the one published for its bucket. Otherwise: the generation is
// still current, the bucket still has no resident table, its directory
// slot still names the same page, and no write-back error is pending.
// The device calls it after copying dependent data (the record page)
// and before acting on it, which is the read's linearization point.
// Requires the same epoch pin as the probe.
func (r *RHIK) RevalidateOptimistic(p OptProbe) bool {
	slot := &p.gen.resident[p.bucket]
	if p.ref != nil {
		return p.ref.table.SeqValidate(p.seq) && slot.Load() == p.ref
	}
	return r.gen.Load() == p.gen && slot.Load() == nil &&
		p.gen.dirs[p.bucket].w.Load() == p.dir && !r.ioErrFlag.Load()
}

// CommitOptimistic applies the cache side effects a locked Get would
// have had — one hit and the reference bit set, or one miss — for a
// probe that validated, against the cache generation the probe actually
// read. Call exactly once per successful optimistic operation.
func (r *RHIK) CommitOptimistic(p OptProbe) {
	if p.ref == nil {
		p.gen.cache.TouchMiss()
		return
	}
	p.gen.cache.TouchHit(p.ref)
}

// OptimisticLookupCost is the simulated CPU charge for one optimistic
// lookup, identical to the locked path's per-op charge so the two paths
// produce byte-identical timelines.
func (r *RHIK) OptimisticLookupCost() sim.Duration { return r.cfg.CPUPerOp }

// Flush writes every dirty cached table to flash. Entries stay cached.
// An in-flight migration is drained first so the persisted state is
// single-generation.
func (r *RHIK) Flush() error {
	r.enter()
	defer r.exit()
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
func (r *RHIK) ResizeCache(budget int64) {
	r.enter()
	defer r.exit()
	r.cache.Resize(budget)
}
