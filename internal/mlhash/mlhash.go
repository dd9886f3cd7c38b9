// Package mlhash implements the baseline index RHIK is compared against:
// a Samsung-KVSSD-style multi-level hash table (§II-B, [7]). The index is
// a cascade of L levels (8 by default), each a flash-resident hash table
// twice the size of the previous. A lookup probes level after level —
// each probe is a page access that costs a flash read on a DRAM-cache
// miss — so metadata accesses cost between 1 and L flash reads (Fig. 5b),
// and performance collapses once the aggregate index outgrows the SSD
// DRAM cache (Fig. 2, Fig. 5a).
package mlhash

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dram"
	"repro/internal/hash"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
)

// SlotSize is one record on flash: signature (8) + PPA (5).
const SlotSize = 8 + 5

// emptyPPA marks a vacant slot (as in the record layer).
const emptyPPA = 1<<40 - 1

// Config parameterizes the multi-level index.
type Config struct {
	// PageSize is the flash page size; each level is an array of pages.
	PageSize int
	// Levels caps the cascade depth (default 8, matching the paper's
	// "8-level Multi-Level Hash Index" comparator in Fig. 5). Levels are
	// created on demand as earlier ones fill — the growth steps behind
	// Fig. 2's "index outgrows the previous" markers.
	Levels int
	// Level0Pages sizes the first level; level i has Level0Pages·2^i
	// pages. Default 4.
	Level0Pages int
	// CacheBudget is the SSD DRAM budget for index pages.
	CacheBudget int64
	// CPUPerOp models firmware hashing/probing cost per level probed.
	CPUPerOp sim.Duration
}

// Defaults applied by New.
const (
	DefaultLevels      = 8
	DefaultLevel0Pages = 4
	DefaultCPUPerOp    = 500 * sim.Nanosecond
)

func (c *Config) applyDefaults() {
	if c.Levels == 0 {
		c.Levels = DefaultLevels
	}
	if c.Level0Pages == 0 {
		c.Level0Pages = DefaultLevel0Pages
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 10 << 20
	}
	if c.CPUPerOp == 0 {
		c.CPUPerOp = DefaultCPUPerOp
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.PageSize < 2*SlotSize {
		return fmt.Errorf("mlhash: page size %d too small", c.PageSize)
	}
	if c.Levels < 1 || c.Levels > 16 {
		return fmt.Errorf("mlhash: levels %d outside [1,16]", c.Levels)
	}
	if c.Level0Pages < 1 {
		return fmt.Errorf("mlhash: level0 pages %d < 1", c.Level0Pages)
	}
	return nil
}

type dirEntry struct {
	ppa nand.PPA
	has bool
}

// Index is the multi-level hash index. Not safe for concurrent use.
type Index struct {
	cfg   Config
	env   index.Env
	slots int // slots per page

	dirs  [][]dirEntry // [level][pageIdx]
	cache *dram.Cache[*page]
	live  map[nand.PPA]uint64 // persisted page -> unit key

	emptyImage []byte   // template page with every slot vacant
	bufPool    [][]byte // recycled owned page buffers

	n          int64
	collisions int64
	ioErr      error
}

var _ index.Index = (*Index)(nil)
var _ index.SharedReader = (*Index)(nil)
var _ index.Relocator = (*Index)(nil)
var _ index.StatsProvider = (*Index)(nil)
var _ index.PrefixScanner = (*Index)(nil)

// New builds a multi-level index over the environment.
func New(cfg Config, env index.Env) (*Index, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		cfg:   cfg,
		env:   env,
		slots: cfg.PageSize / SlotSize,
		live:  make(map[nand.PPA]uint64),
	}
	// Only level 0 exists at first; deeper levels are added as the
	// cascade fills.
	ix.dirs = [][]dirEntry{make([]dirEntry, cfg.Level0Pages)}
	ix.emptyImage = make([]byte, ix.slots*SlotSize)
	for off := 0; off < len(ix.emptyImage); off += SlotSize {
		writePPA(ix.emptyImage[off+8:], emptyPPA)
	}
	ix.cache = dram.New(cfg.CacheBudget, func(key uint64, pg *page, _ int64) {
		if pg.dirty {
			if err := ix.writePage(key, pg); err != nil && ix.ioErr == nil {
				ix.ioErr = err
			}
		}
		if pg.owned {
			ix.putBuf(pg.buf)
		}
	})
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "mlhash" }

// Len implements index.Index.
func (ix *Index) Len() int64 { return ix.n }

// Capacity reports the slot capacity of the levels created so far.
func (ix *Index) Capacity() int64 {
	var total int64
	for l := range ix.dirs {
		total += int64(len(ix.dirs[l])) * int64(ix.slots)
	}
	return total
}

// MaxCapacity reports the slot capacity with every level materialized.
func (ix *Index) MaxCapacity() int64 {
	pages := int64(ix.cfg.Level0Pages) * (1<<uint(ix.cfg.Levels) - 1)
	return pages * int64(ix.slots)
}

// Levels reports how many levels exist so far.
func (ix *Index) Levels() int { return len(ix.dirs) }

// addLevel materializes the next level, twice the size of the last.
// Reports false when the configured depth is exhausted.
func (ix *Index) addLevel() bool {
	if len(ix.dirs) >= ix.cfg.Levels {
		return false
	}
	next := 2 * len(ix.dirs[len(ix.dirs)-1])
	ix.dirs = append(ix.dirs, make([]dirEntry, next))
	return true
}

// unitKey packs (level, pageIdx) into the cache/live key space.
func unitKey(level int, pageIdx uint64) uint64 {
	return uint64(level)<<48 | pageIdx
}

func unitLevel(u uint64) int   { return int(u >> 48) }
func unitPage(u uint64) uint64 { return u & (1<<48 - 1) }

// pageOf hashes sig into level l's page array. Each level uses a distinct
// seed so overflowing keys spread independently.
func (ix *Index) pageOf(sigLo uint64, level int) uint64 {
	h := hash.Mix64(sigLo ^ (uint64(level)+1)*0x9e3779b97f4a7c15)
	return h % uint64(len(ix.dirs[level]))
}

// loadPage fetches a level page via the cache, reading flash on a miss.
// Clean pages alias the flash buffer; mutation copies (see page.own).
func (ix *Index) loadPage(level int, pageIdx uint64) (*page, error) {
	key := unitKey(level, pageIdx)
	if pg, ok := ix.cache.Get(key); ok {
		return pg, nil
	}
	var pg *page
	if d := ix.dirs[level][pageIdx]; d.has {
		data, err := ix.env.ReadPage(d.ppa)
		if err != nil {
			return nil, err
		}
		if len(data) < ix.slots*SlotSize {
			return nil, fmt.Errorf("mlhash: short page %d", len(data))
		}
		pg = &page{buf: data}
	} else {
		pg = ix.newEmptyPage()
	}
	ix.cache.Put(key, pg, int64(ix.slots*SlotSize))
	return pg, nil
}

func (ix *Index) writePage(key uint64, pg *page) error {
	ppa, err := ix.env.AppendPage(pg.buf)
	if err != nil {
		return err
	}
	level, pageIdx := unitLevel(key), unitPage(key)
	if d := ix.dirs[level][pageIdx]; d.has {
		ix.env.Invalidate(d.ppa)
		delete(ix.live, d.ppa)
	}
	ix.dirs[level][pageIdx] = dirEntry{ppa: ppa, has: true}
	ix.live[ppa] = key
	pg.dirty = false
	return nil
}

func (ix *Index) checkIO() error {
	if ix.ioErr != nil {
		err := ix.ioErr
		ix.ioErr = nil
		return err
	}
	return nil
}

// Insert implements index.Index: probe existing levels for a record to
// update; otherwise take the first free slot walking down the cascade,
// materializing the next level when every existing one is full — the
// growth behaviour behind Fig. 2. The target page is re-loaded after the
// full probe because probing deeper levels may have evicted it from a
// small cache.
func (ix *Index) Insert(sig index.Sig, rp uint64) (old uint64, replaced bool, err error) {
	freeLevel := -1
	for l := 0; l < len(ix.dirs); l++ {
		ix.env.ChargeCPU(ix.cfg.CPUPerOp)
		pg, err := ix.loadPage(l, ix.pageOf(sig.Lo, l))
		if err != nil {
			return 0, false, err
		}
		if off := pg.find(sig.Lo); off >= 0 {
			old = pg.ppaAt(off)
			pg.own(ix)
			pg.setSlot(off, sig.Lo, rp)
			pg.dirty = true
			return old, true, ix.checkIO()
		}
		if freeLevel < 0 && pg.findFree() >= 0 {
			freeLevel = l
		}
	}
	if freeLevel < 0 {
		if !ix.addLevel() {
			ix.collisions++
			return 0, false, index.ErrCollision
		}
		freeLevel = len(ix.dirs) - 1
	}
	pg, err := ix.loadPage(freeLevel, ix.pageOf(sig.Lo, freeLevel))
	if err != nil {
		return 0, false, err
	}
	off := pg.findFree()
	if off < 0 {
		// Cannot happen single-threaded, but fail safe.
		ix.collisions++
		return 0, false, index.ErrCollision
	}
	pg.own(ix)
	pg.setSlot(off, sig.Lo, rp)
	pg.dirty = true
	ix.n++
	return 0, false, ix.checkIO()
}

// Get implements index.Index: the same probe as Lookup.
func (ix *Index) Get(sig index.Sig) (uint64, bool, error) { return ix.Lookup(sig) }

// Lookup implements index.Index, probing levels top-down.
func (ix *Index) Lookup(sig index.Sig) (uint64, bool, error) {
	for l := 0; l < len(ix.dirs); l++ {
		ix.env.ChargeCPU(ix.cfg.CPUPerOp)
		pg, err := ix.loadPage(l, ix.pageOf(sig.Lo, l))
		if err != nil {
			return 0, false, err
		}
		if off := pg.find(sig.Lo); off >= 0 {
			return pg.ppaAt(off), true, ix.checkIO()
		}
	}
	return 0, false, ix.checkIO()
}

// Delete implements index.Index.
func (ix *Index) Delete(sig index.Sig) (uint64, bool, error) {
	for l := 0; l < len(ix.dirs); l++ {
		ix.env.ChargeCPU(ix.cfg.CPUPerOp)
		pg, err := ix.loadPage(l, ix.pageOf(sig.Lo, l))
		if err != nil {
			return 0, false, err
		}
		if off := pg.find(sig.Lo); off >= 0 {
			rp := pg.ppaAt(off)
			pg.own(ix)
			pg.setSlot(off, 0, emptyPPA)
			pg.dirty = true
			ix.n--
			return rp, true, ix.checkIO()
		}
	}
	return 0, false, ix.checkIO()
}

// Exist implements index.Index.
func (ix *Index) Exist(sig index.Sig) (bool, error) {
	_, ok, err := ix.Lookup(sig)
	return ok, err
}

// PrefixRecords implements index.PrefixScanner, giving the multi-level
// baseline prefix-iteration parity with RHIK for the cross-engine
// shootout. The cascade hashes full signatures into per-level page
// arrays, so prefix-sharing keys (equal low 32 bits) land anywhere: the
// scan must sweep every materialized page of every level — a flash read
// per uncached persisted page — versus RHIK's single-bucket read. That
// cost gap is the asymmetry the shootout reports. Pages that were never
// persisted and are not cached hold no records and are skipped without
// touching the cache (loading them would mutate it).
func (ix *Index) PrefixRecords(low uint32) ([]uint64, error) {
	var out []uint64
	for l := range ix.dirs {
		for pi := range ix.dirs[l] {
			pg, cached := ix.cache.Peek(unitKey(l, uint64(pi)))
			if !cached {
				if !ix.dirs[l][pi].has {
					continue
				}
				var err error
				pg, err = ix.loadPage(l, uint64(pi))
				if err != nil {
					return nil, err
				}
			}
			ix.env.ChargeCPU(ix.cfg.CPUPerOp)
			for off := 0; off+SlotSize <= len(pg.buf); off += SlotSize {
				if pg.ppaAt(off) == emptyPPA {
					continue
				}
				if sig := binary.LittleEndian.Uint64(pg.buf[off:]); uint32(sig) == low {
					out = append(out, pg.ppaAt(off))
				}
			}
		}
	}
	return out, ix.checkIO()
}

// SharedLookupReady implements index.SharedReader. A lookup probes levels
// top-down until a page contains sig, so it can run under the shard read
// lock when every page it would touch is DRAM-resident: walk the same
// probe sequence with pure peeks, stopping early at the level that would
// satisfy the lookup. A page that was never persisted is not cached
// either (loadPage would insert an empty page — a mutation), so the walk
// correctly demands exclusivity for it.
func (ix *Index) SharedLookupReady(sig index.Sig) bool {
	if ix.ioErr != nil {
		return false
	}
	for l := 0; l < len(ix.dirs); l++ {
		pg, ok := ix.cache.Peek(unitKey(l, ix.pageOf(sig.Lo, l)))
		if !ok {
			return false
		}
		if pg.find(sig.Lo) >= 0 {
			return true
		}
	}
	return true // full probe, all levels cached: a clean miss is pure
}

// Flush implements index.Index: write back every dirty cached page.
func (ix *Index) Flush() error {
	var firstErr error
	ix.cache.Range(func(key uint64, pg *page, _ int64) bool {
		if pg.dirty {
			if err := ix.writePage(key, pg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	return ix.checkIO()
}

// Owner implements index.Relocator.
func (ix *Index) Owner(p nand.PPA) (uint64, bool) {
	u, ok := ix.live[p]
	return u, ok
}

// Relocate implements index.Relocator.
func (ix *Index) Relocate(unit uint64) error {
	pg, err := ix.loadPage(unitLevel(unit), unitPage(unit))
	if err != nil {
		return err
	}
	if err := ix.writePage(unit, pg); err != nil {
		return err
	}
	return ix.checkIO()
}

// IndexStats implements index.StatsProvider.
func (ix *Index) IndexStats() index.Stats {
	dirEntries := 0
	for _, d := range ix.dirs {
		dirEntries += len(d)
	}
	return index.Stats{
		Records:    ix.n,
		Collisions: ix.collisions,
		DirEntries: dirEntries,
		DRAMBytes:  int64(dirEntries)*5 + ix.cache.Used(),
		Cache:      ix.cache.Stats(),
	}
}

// CacheStats exposes cache counters (Fig. 5a).
func (ix *Index) CacheStats() dram.Stats { return ix.cache.Stats() }

// ResetCacheStats zeroes cache counters between experiment phases.
func (ix *Index) ResetCacheStats() { ix.cache.ResetStats() }

// ResizeCache implements index.CacheResizer, adjusting the DRAM budget
// for cached pages at runtime (dirty entries evicted by a shrink are
// written back through the usual path).
func (ix *Index) ResizeCache(budget int64) { ix.cache.Resize(budget) }
