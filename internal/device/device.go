// Package device implements the emulated KVSSD: command processing for
// store/retrieve/delete/exist/iterate over the vendor-style KV interface,
// the log-structured data path with extent packing, the firmware timing
// model, garbage collection for both flash zones, periodic checkpointing
// and crash recovery, and the integration point for the pluggable index
// (RHIK or the multi-level baseline).
//
// Timing model. The device runs on a simulated clock. The firmware is a
// serial timeline (`fw`): per-command CPU and *index* flash accesses block
// it, because the key-to-location mapping must resolve before a command
// can proceed — this is exactly why index residency dominates KVSSD
// performance. Data page programs and reads are scheduled onto NAND die
// resources and overlap freely; a bounded write-buffer ring applies
// backpressure so die backlogs stay realistic. A synchronous host submits
// each command at the previous command's completion; an asynchronous host
// submits back-to-back, letting die-level parallelism through (Fig. 6).
package device

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/epoch"
	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/lsmindex"
	"repro/internal/metrics"
	"repro/internal/mlhash"
	"repro/internal/nand"
	"repro/internal/sim"
)

// IndexKind selects the in-device index scheme.
type IndexKind int

// Index schemes.
const (
	IndexRHIK IndexKind = iota
	IndexMultiLevel
	IndexLSM
)

func (k IndexKind) String() string {
	switch k {
	case IndexRHIK:
		return "rhik"
	case IndexMultiLevel:
		return "mlhash"
	case IndexLSM:
		return "lsm"
	default:
		return fmt.Sprintf("index(%d)", int(k))
	}
}

// Errors returned by device commands.
var (
	ErrNotFound      = errors.New("device: key not found")
	ErrDeviceFull    = errors.New("device: out of space")
	ErrKeyTooLarge   = errors.New("device: key exceeds maximum size")
	ErrValueTooLarge = errors.New("device: value exceeds maximum size")
	ErrClosed        = errors.New("device: closed")
	ErrNoIterator    = errors.New("device: iterate requires an iterator-mode signature scheme")
	// ErrPrefixTooShort: signatures group keys by their first PrefixLen
	// bytes, so a shorter prefix selects no group.
	ErrPrefixTooShort = errors.New("device: iterate prefix shorter than the signature scheme's prefix length")
)

// Config describes an emulated KVSSD.
type Config struct {
	// Capacity is the requested usable capacity in bytes; the NAND
	// geometry is derived from it unless NAND is set explicitly.
	Capacity int64
	// NAND overrides the derived geometry when non-nil.
	NAND *nand.Config

	// Index selects the indexing scheme (RHIK by default).
	Index IndexKind
	// SigScheme configures key signatures (64-bit MurmurHash2 default).
	SigScheme index.SigScheme
	// CacheBudget is the SSD DRAM budget for index pages (10 MB default,
	// matching the paper's Fig. 5 setup).
	CacheBudget int64
	// AnticipatedKeys pre-sizes RHIK's directory (Eq. 2); zero starts
	// minimal and grows by re-configuration.
	AnticipatedKeys int64
	// OccupancyThreshold is RHIK's resize trigger (default 0.80).
	OccupancyThreshold float64
	// HopRange is RHIK's hopscotch neighborhood (default 32).
	HopRange int
	// MLHash tunes the multi-level baseline when Index is
	// IndexMultiLevel. PageSize and CacheBudget are filled from the
	// device config.
	MLHash mlhash.Config

	// CmdCPU is the firmware cost of command handling beyond the index
	// (parsing, allocation, queueing). Default 2 µs.
	CmdCPU sim.Duration
	// AckOverhead is the host-visible command round trip beyond firmware
	// work: NVMe doorbell, DMA setup, completion interrupt. It delays a
	// command's completion but not the firmware, so deep (async) queues
	// hide it while QD1 (sync) pays it per command — the Fig. 6
	// sync/async gap. Default 8 µs.
	AckOverhead sim.Duration
	// HostMBps is the host-interface bandwidth (PCIe link) moving
	// payloads between host and device; transfers serialize on it.
	// Default 3200 MB/s.
	HostMBps int
	// GCLowWater is the free-block count that triggers garbage
	// collection (default 6).
	GCLowWater int
	// WriteBufferPages bounds un-acknowledged page programs in flight
	// (default 4 × dies).
	WriteBufferPages int
	// StripeWidth is the number of blocks a log writer stripes across
	// (default: the die count, one frontier block per die).
	StripeWidth int
	// CheckpointEveryOps runs an automatic checkpoint every N mutating
	// commands (0 disables automatic checkpoints).
	CheckpointEveryOps int64
	// DisableAutoResize stops the device from resizing RHIK when its
	// occupancy threshold is crossed (used by fixed-index experiments).
	DisableAutoResize bool
	// IncrementalResize enables RHIK's lazy re-configuration (the
	// paper's "real-time index scaling" future work) instead of the
	// default stop-the-world migration.
	IncrementalResize bool

	// ValueCacheBudget, when positive, enables the hot-value DRAM tier:
	// a byte-budgeted cache of immutable key→value copies consulted by
	// every read tier before the index, invalidated before any
	// overwriting Store/Delete acknowledges. 0 (default) disables it and
	// keeps the read path byte-identical to the pre-cache device.
	ValueCacheBudget int64
}

func (c *Config) applyDefaults() {
	if c.Capacity == 0 && c.NAND == nil {
		c.Capacity = 1 << 30
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 10 << 20
	}
	if c.CmdCPU == 0 {
		c.CmdCPU = 2 * sim.Microsecond
	}
	if c.AckOverhead == 0 {
		c.AckOverhead = 8 * sim.Microsecond
	}
	if c.HostMBps == 0 {
		c.HostMBps = 3200
	}
	if c.GCLowWater == 0 {
		c.GCLowWater = 6
	}
}

// pendingPair is a pair buffered in an open (not yet programmed) page,
// kept addressable for read-your-writes.
type pendingPair struct {
	key   []byte
	value []byte
}

// stripeSlot is one member block of a log writer's stripe.
type stripeSlot struct {
	open  bool
	block nand.BlockID
	next  int // next programmable page
}

// logWriter is one log-structured write frontier into the KV zone,
// striped across a set of blocks on different dies so consecutive page
// programs overlap (superpage-style striping — without it, sequential
// fills would serialize on a single die). The device keeps two writers:
// one for host writes, one for GC relocations, so collection never
// re-enters the frontier it is flushing.
type logWriter struct {
	name    string
	slots   []stripeSlot
	cur     int // slot bound to the open page
	builder *layout.PageBuilder
	pageRPs []layout.RP // record pointers of pairs in the open page
	liveLen []int       // accounting size per pair (negative = dead bytes)
}

// Stats aggregates device-level counters.
type Stats struct {
	Stores    int64
	Retrieves int64
	Deletes   int64
	Exists    int64
	Iterates  int64

	BytesWritten int64 // host payload bytes accepted
	BytesRead    int64 // host payload bytes returned

	GCRuns          int64
	GCPagesMoved    int64
	GCBytesMoved    int64
	Checkpoints     int64
	Recoveries      int64
	ResizeHalt      sim.Duration // total queue-halt time spent resizing
	CollisionAborts int64

	// ValueCacheHits/Misses count hot-value tier consultations (both 0
	// when ValueCacheBudget is 0); PrefetchHits counts the records every
	// scan (Iterate, Snapshot.Scan) decoded from a data page it had
	// already read for an earlier record, instead of reading flash again.
	ValueCacheHits   int64
	ValueCacheMisses int64
	PrefetchHits     int64
}

// devStats is the live counter set. Retrieve/Exist bump their counters
// under the shard read lock, concurrently with each other, so every
// field is atomic; Stats() snapshots them into the exported plain struct.
type devStats struct {
	stores    atomic.Int64
	retrieves atomic.Int64
	deletes   atomic.Int64
	exists    atomic.Int64
	iterates  atomic.Int64

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64

	gcRuns          atomic.Int64
	gcPagesMoved    atomic.Int64
	gcBytesMoved    atomic.Int64
	checkpoints     atomic.Int64
	recoveries      atomic.Int64
	resizeHalt      atomic.Int64 // sim.Duration ns
	collisionAborts atomic.Int64
	prefetchHits    atomic.Int64
}

func (s *devStats) snapshot() Stats {
	return Stats{
		Stores:          s.stores.Load(),
		Retrieves:       s.retrieves.Load(),
		Deletes:         s.deletes.Load(),
		Exists:          s.exists.Load(),
		Iterates:        s.iterates.Load(),
		BytesWritten:    s.bytesWritten.Load(),
		BytesRead:       s.bytesRead.Load(),
		GCRuns:          s.gcRuns.Load(),
		GCPagesMoved:    s.gcPagesMoved.Load(),
		GCBytesMoved:    s.gcBytesMoved.Load(),
		Checkpoints:     s.checkpoints.Load(),
		Recoveries:      s.recoveries.Load(),
		ResizeHalt:      sim.Duration(s.resizeHalt.Load()),
		CollisionAborts: s.collisionAborts.Load(),
		PrefetchHits:    s.prefetchHits.Load(),
	}
}

// Device is the emulated KVSSD. Mutating commands (Store, Delete,
// Checkpoint, Restart, Close, Iterate) must be externally serialized —
// the sharded front-end (internal/shard) runs them under a per-shard
// write lock. Reads have three tiers:
//
//   - TryRetrieveOptimistic/TryExistOptimistic run with NO lock at all
//     (RHIK only): the probe validates against per-table seqlocks and
//     the atomically-swapped directory generation, an epoch pin keeps
//     retired tables and erased flash buffers from being reused
//     underneath the read, and index.ErrOptimisticRetry /
//     index.ErrNeedExclusive are returned — before any simulated-time
//     charge — when a concurrent mutation interferes or the state is
//     not DRAM-resident.
//   - TryRetrieveShared/TryExistShared run under the caller's SHARED
//     lock (the legacy tier, still used by indexes without an
//     optimistic surface), refusing with ErrNeedExclusive whenever the
//     operation would have to mutate index structure.
//   - Retrieve/RetrieveAppend/Exist re-execute under the caller's
//     exclusive lock.
//
// Observability accessors (Stats, FlashStats, latency histograms)
// snapshot atomics and are safe alongside concurrent readers.
type Device struct {
	cfg    Config
	clock  *sim.Clock
	flash  *nand.Flash
	mgr    *ftl.Manager
	idx    index.Index
	env    *idxEnv
	scheme index.SigScheme

	hostLink *sim.Resource // host-interface DMA engine

	fg  logWriter // foreground KV log
	gcw logWriter // GC relocation KV log

	idxBlock     nand.BlockID // index zone log head
	idxBlockOpen bool
	idxNextPage  int
	idxPageSize  map[nand.PPA]int32 // live index pages -> byte size

	pending map[layout.RP]pendingPair // buffered pairs across both writers

	inflight []sim.Time // write-buffer ring of outstanding program completions
	inGC     bool

	seq       uint64 // global pair sequence number
	ckptSeq   uint64 // sequence covered by the last checkpoint
	ckptID    uint64 // monotone checkpoint generation
	ckptPages []nand.PPA
	// ckptPinned holds index pages referenced by the persisted
	// checkpoint: they must not be invalidated, relocated, or erased
	// until the next checkpoint, or recovery would follow dangling
	// references into reused flash. Invalidations of pinned pages are
	// deferred to deferredInval and applied at the next checkpoint.
	ckptPinned    map[nand.PPA]bool
	deferredInval []nand.PPA
	mutsSince     int64       // mutating ops since last checkpoint
	closed        atomic.Bool // lock-free readers check it without the shard lock

	// reclaim defers reuse of reader-reachable objects (pooled record
	// tables, erased flash buffers) past every pinned optimistic reader.
	// Created once in Open; survives Restart so pins held across a
	// simulated power cycle stay valid.
	reclaim *epoch.Domain
	// optIdx caches the index downcast for the lock-free read tier; nil
	// when the configured index has no optimistic surface.
	optIdx atomic.Pointer[core.RHIK]
	// mutSeq is the device structure-mutation sequence: odd while a
	// restructuring that can yank flash pages out from under a reader
	// (GC erase, Restart) is in flight. Optimistic readers snapshot it
	// up front and convert any mid-read flash error into a retry when it
	// moved, so transient ErrNotProgrammed during an overlapping erase
	// never surfaces to the host.
	mutSeq   atomic.Uint64
	mutDepth int // re-entrancy depth for begin/endStructureMutation

	// vcache is the hot-value DRAM tier (nil when ValueCacheBudget is 0).
	// Lock-free lookups from every read tier; inserts and invalidations
	// serialize on its internal side lock. Flushed on Restart because
	// recovery can roll back the unflushed write tail.
	vcache *dram.ValueCache

	// wepoch is the global write epoch (MVCC). Records are stamped
	// wepoch+1 while a mutation batch is applied; AdvanceEpoch — called
	// by the front-end once per batch, under the exclusive lock — folds
	// the open batch in. A snapshot captured between batches therefore
	// observes exactly the records with epoch <= wepoch.
	wepoch atomic.Uint64
	// snapMu guards snaps: Release may arrive from any goroutine while
	// GC (under the exclusive lock) reads the set for victim exclusion.
	snapMu sync.Mutex
	snaps  map[*Snapshot]struct{}

	stats      devStats
	latStore   metrics.ConcurrentHistogram // per-op simulated latency (ns)
	latGet     metrics.ConcurrentHistogram
	metaPerOp  metrics.ConcurrentHistogram // flash reads per index operation
	metaPerGet metrics.ConcurrentHistogram // flash reads per retrieve lookup only
	maxValue   int
}

// Open builds a fresh device (all flash erased).
func Open(cfg Config) (*Device, error) {
	cfg.applyDefaults()
	var ncfg nand.Config
	if cfg.NAND != nil {
		ncfg = *cfg.NAND
	} else {
		ncfg = nand.DefaultConfig(cfg.Capacity)
	}
	if err := ncfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SigScheme.Bits == 0 {
		cfg.SigScheme = index.DefaultSigScheme
	}
	if err := cfg.SigScheme.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteBufferPages == 0 {
		cfg.WriteBufferPages = 4 * ncfg.Dies()
	}
	if cfg.StripeWidth == 0 {
		cfg.StripeWidth = ncfg.Dies()
	}

	clock := sim.NewClock()
	flash := nand.New(ncfg, clock)
	d := &Device{
		cfg:         cfg,
		clock:       clock,
		flash:       flash,
		mgr:         ftl.NewManager(flash),
		scheme:      cfg.SigScheme,
		idxPageSize: make(map[nand.PPA]int32),
		pending:     make(map[layout.RP]pendingPair),
		ckptPinned:  make(map[nand.PPA]bool),
		reclaim:     epoch.NewDomain(),
		snaps:       make(map[*Snapshot]struct{}),
	}
	d.env = &idxEnv{d: d}
	if cfg.ValueCacheBudget > 0 {
		d.vcache = dram.NewValueCache(cfg.ValueCacheBudget)
	}
	d.hostLink = sim.NewResource("hostlink")
	d.fg = d.newLogWriter("fg")
	d.gcw = d.newLogWriter("gc")

	// Largest storable value: an extent must fit within one erase block.
	d.maxValue = layout.HeadCapacity(ncfg.PageSize, 0) + (ncfg.PagesPerBlock-1)*ncfg.PageSize

	idx, err := d.buildIndex()
	if err != nil {
		return nil, err
	}
	d.idx = idx
	if r, ok := idx.(*core.RHIK); ok {
		d.optIdx.Store(r)
	}
	return d, nil
}

func (d *Device) buildIndex() (index.Index, error) {
	pageSize := d.flash.Config().PageSize
	switch d.cfg.Index {
	case IndexRHIK:
		return core.New(core.Config{
			PageSize:           pageSize,
			HopRange:           d.cfg.HopRange,
			SigScheme:          d.scheme,
			AnticipatedKeys:    d.cfg.AnticipatedKeys,
			OccupancyThreshold: d.cfg.OccupancyThreshold,
			CacheBudget:        d.cfg.CacheBudget,
			IncrementalResize:  d.cfg.IncrementalResize,
			Reclaim:            d.reclaim,
		}, d.env)
	case IndexMultiLevel:
		mcfg := d.cfg.MLHash
		mcfg.PageSize = pageSize
		if mcfg.CacheBudget == 0 {
			mcfg.CacheBudget = d.cfg.CacheBudget
		}
		return mlhash.New(mcfg, d.env)
	case IndexLSM:
		return lsmindex.New(lsmindex.Config{
			PageSize:    pageSize,
			CacheBudget: d.cfg.CacheBudget,
		}, d.env)
	default:
		return nil, fmt.Errorf("device: unknown index kind %v", d.cfg.Index)
	}
}

// Config returns the device configuration (post-defaults).
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the NAND geometry in use.
func (d *Device) Geometry() nand.Config { return d.flash.Config() }

// Index exposes the underlying index for inspection.
func (d *Device) Index() index.Index { return d.idx }

// Scheme returns the signature scheme in use.
func (d *Device) Scheme() index.SigScheme { return d.scheme }

// Now reports the firmware timeline position.
func (d *Device) Now() sim.Time { return d.env.now.Load() }

// Drain returns the time at which every in-flight operation (including
// scheduled die work) has completed.
func (d *Device) Drain() sim.Time {
	t := d.env.now.Load()
	if bt := d.flash.BusyUntil(); bt > t {
		t = bt
	}
	return t
}

// Stats returns a snapshot of device counters.
func (d *Device) Stats() Stats {
	s := d.stats.snapshot()
	if d.vcache != nil {
		vs := d.vcache.Stats()
		s.ValueCacheHits = vs.Hits
		s.ValueCacheMisses = vs.Misses
	}
	return s
}

// ValueCacheStats snapshots the hot-value tier's counters (zero when the
// tier is disabled).
func (d *Device) ValueCacheStats() dram.ValueStats {
	if d.vcache == nil {
		return dram.ValueStats{}
	}
	return d.vcache.Stats()
}

// FlashStats returns NAND operation counters.
func (d *Device) FlashStats() nand.Stats { return d.flash.Stats() }

// FTLStats returns block pool accounting.
func (d *Device) FTLStats() ftl.Stats { return d.mgr.Stats() }

// IndexStats returns the index's observability snapshot.
func (d *Device) IndexStats() index.Stats {
	if sp, ok := d.idx.(index.StatsProvider); ok {
		return sp.IndexStats()
	}
	return index.Stats{Records: d.idx.Len()}
}

// ResizeEvents returns RHIK's re-configuration history (nil for other
// indexes).
func (d *Device) ResizeEvents() []index.ResizeEvent {
	if r, ok := d.idx.(index.Resizer); ok {
		return r.ResizeEvents()
	}
	return nil
}

// StoreLatency snapshots the per-store latency histogram (simulated ns).
func (d *Device) StoreLatency() *metrics.Histogram {
	h := d.latStore.Snapshot()
	return &h
}

// RetrieveLatency snapshots the per-retrieve latency histogram.
func (d *Device) RetrieveLatency() *metrics.Histogram {
	h := d.latGet.Snapshot()
	return &h
}

// MetaReadsPerOp snapshots the flash-reads-per-index-operation histogram
// (Fig. 5b).
func (d *Device) MetaReadsPerOp() *metrics.Histogram {
	h := d.metaPerOp.Snapshot()
	return &h
}

// MetaReadsPerGet snapshots the flash-reads-per-retrieve histogram: only
// get lookups contribute, so its mean is the flash-reads-per-GET figure
// RHIK bounds at one (the shootout's headline metric).
func (d *Device) MetaReadsPerGet() *metrics.Histogram {
	h := d.metaPerGet.Snapshot()
	return &h
}

// ResetOpStats clears per-op histograms and cache counters between
// experiment phases without touching stored data.
func (d *Device) ResetOpStats() {
	d.latStore.Reset()
	d.latGet.Reset()
	d.metaPerOp.Reset()
	d.metaPerGet.Reset()
	type cacheResetter interface{ ResetCacheStats() }
	if cr, ok := d.idx.(cacheResetter); ok {
		cr.ResetCacheStats()
	}
	if d.vcache != nil {
		d.vcache.ResetStats()
	}
	d.stats.prefetchHits.Store(0)
}

// Close flushes buffered data and the index, then marks the device
// unusable.
func (d *Device) Close() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	d.closed.Store(true)
	return nil
}

// beginStructureMutation marks the start of a restructuring that can
// make flash pages transiently unreadable (GC erase, Restart). The
// sequence is odd while one is in flight; optimistic readers that
// observe a moved or odd sequence convert flash errors into retries.
// Re-entrant (collect can run inside Restart's replay via flushOpen),
// so only the outermost bracket moves the sequence. Writer-side.
func (d *Device) beginStructureMutation() {
	if d.mutDepth == 0 {
		d.mutSeq.Add(1)
	}
	d.mutDepth++
}

// endStructureMutation closes a beginStructureMutation bracket.
func (d *Device) endStructureMutation() {
	d.mutDepth--
	if d.mutDepth == 0 {
		d.mutSeq.Add(1)
	}
}

// collectRetired frees retired objects (pooled record tables, erased
// flash buffers) whose retirement epoch precedes every pinned reader.
// Writer-side: called from the exclusive command paths, so it never
// races Retire.
func (d *Device) collectRetired() {
	if d.reclaim.Pending() > 0 {
		d.reclaim.Collect()
	}
}

// AdvanceEpoch folds the open mutation batch into the write epoch.
// The front-end calls it once per batch (a group commit, an Apply
// sub-batch, or a single direct Store/Delete) under the exclusive lock;
// records applied since the previous call carry the new epoch value.
func (d *Device) AdvanceEpoch() { d.wepoch.Add(1) }

// WriteEpoch reports the current write epoch: the visibility bound a
// snapshot opened now would pin.
func (d *Device) WriteEpoch() uint64 { return d.wepoch.Load() }

// SupportsOptimisticReads reports whether the configured index exposes
// the lock-free read tier (RHIK does; the baselines fall back to the
// shared-lock tier).
func (d *Device) SupportsOptimisticReads() bool { return d.optIdx.Load() != nil }

// ReclaimStats snapshots the epoch-reclamation counters.
func (d *Device) ReclaimStats() epoch.Stats { return d.reclaim.Stats() }

// Flash exposes the NAND array for tests (fault injection) and tools.
func (d *Device) Flash() *nand.Flash { return d.flash }
