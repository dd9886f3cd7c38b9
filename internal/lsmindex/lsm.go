// Package lsmindex implements the LSM-tree-based KVSSD index the paper
// positions RHIK against (§II-B): the design direction of LSM-tree FTLs
// [16] and PinK [5]. Records accumulate in a DRAM memtable; flushes emit
// sorted runs onto flash, each with a DRAM-pinned fence index (PinK's
// "pin levels in DRAM, no Bloom filters"), and runs are merged by full
// compaction when too many accumulate.
//
// A lookup searches the memtable, then each run from newest to oldest:
// the fence index locates the exact page (one binary search in DRAM),
// but the page itself costs a flash read — so a lookup costs up to
// #runs flash reads, and even the steady-state single run still needs
// its read plus the binary searches the paper calls out. This is the
// contrast to RHIK's at-most-one-read guarantee.
package lsmindex

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
)

// SlotSize is one record on flash: signature (8) + record pointer (5).
const SlotSize = 8 + 5

// tombstoneRP marks a deletion record inside runs.
const tombstoneRP = 1<<40 - 1

// memRecBytes is the accounted DRAM cost of one memtable record:
// signature (8) + record pointer (8, the map value slot). The memtable
// pays this against CacheBudget like every other DRAM consumer.
const memRecBytes = 16

// Config parameterizes the LSM index.
type Config struct {
	// PageSize is the flash page size (run granularity).
	PageSize int
	// MemtableRecords flushes the memtable when it holds this many
	// records (default: one page worth ×4).
	MemtableRecords int
	// MaxRuns triggers a full compaction when exceeded (default 4).
	MaxRuns int
	// CacheBudget bounds DRAM for run pages read from flash.
	CacheBudget int64
	// CPUPerCompare models one binary-search comparison step.
	CPUPerCompare sim.Duration
}

func (c *Config) applyDefaults() {
	if c.MemtableRecords == 0 {
		c.MemtableRecords = 4 * (c.PageSize / SlotSize)
	}
	if c.MaxRuns == 0 {
		c.MaxRuns = 4
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 10 << 20
	}
	if c.CPUPerCompare == 0 {
		c.CPUPerCompare = 50 * sim.Nanosecond
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.PageSize < 2*SlotSize {
		return fmt.Errorf("lsmindex: page size %d too small", c.PageSize)
	}
	if c.MaxRuns < 1 {
		return fmt.Errorf("lsmindex: max runs %d < 1", c.MaxRuns)
	}
	return nil
}

// rec is one signature→pointer record.
type rec struct {
	sig uint64
	rp  uint64 // tombstoneRP encodes a delete
}

// ownerRef locates a live flash page within its run.
type ownerRef struct {
	r  *run
	pi int
}

// run is one immutable sorted run on flash.
type run struct {
	pages  []nand.PPA // page addresses, in key order
	fences []uint64   // first signature of each page (DRAM-pinned)
	counts []int      // records per page
}

// Index is the LSM-tree index. Not safe for concurrent use.
type Index struct {
	cfg Config
	env index.Env

	mem    map[uint64]uint64   // memtable: sig -> rp (tombstoneRP = delete)
	runs   []*run              // newest first
	cache  *dram.Cache[[]byte] // page cache for run pages
	owners map[nand.PPA]ownerRef

	n           int64 // live records (net of tombstones)
	flushes     int64
	compactions int64
	ioErr       error
}

var _ index.Index = (*Index)(nil)
var _ index.SharedReader = (*Index)(nil)
var _ index.Relocator = (*Index)(nil)
var _ index.StatsProvider = (*Index)(nil)
var _ index.PrefixScanner = (*Index)(nil)

// New builds an LSM index over the environment.
func New(cfg Config, env index.Env) (*Index, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		cfg:    cfg,
		env:    env,
		mem:    make(map[uint64]uint64),
		owners: make(map[nand.PPA]ownerRef),
	}
	ix.cache = dram.New[[]byte](cfg.CacheBudget, nil) // run pages are immutable: no write-back
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "lsm" }

// Len implements index.Index.
func (ix *Index) Len() int64 { return ix.n }

// Runs reports the current run count (lookup cost bound).
func (ix *Index) Runs() int { return len(ix.runs) }

// recsPerPage is the run page fan-out.
func (ix *Index) recsPerPage() int { return ix.cfg.PageSize / SlotSize }

func (ix *Index) checkIO() error {
	if ix.ioErr != nil {
		err := ix.ioErr
		ix.ioErr = nil
		return err
	}
	return nil
}

// Insert implements index.Index.
func (ix *Index) Insert(sig index.Sig, rp uint64) (old uint64, replaced bool, err error) {
	ix.env.ChargeCPU(ix.cfg.CPUPerCompare * 8)
	old, replaced, err = ix.lookupAll(sig.Lo)
	if err != nil {
		return 0, false, err
	}
	ix.mem[sig.Lo] = rp
	if !replaced {
		ix.n++
	}
	if err := ix.chargeMemtable(); err != nil {
		return old, replaced, err
	}
	return old, replaced, ix.checkIO()
}

// Get implements index.Index: the same probe as Lookup.
func (ix *Index) Get(sig index.Sig) (uint64, bool, error) { return ix.Lookup(sig) }

// Lookup implements index.Index.
func (ix *Index) Lookup(sig index.Sig) (uint64, bool, error) {
	ix.env.ChargeCPU(ix.cfg.CPUPerCompare * 8)
	rp, ok, err := ix.lookupAll(sig.Lo)
	if err != nil {
		return 0, false, err
	}
	return rp, ok, ix.checkIO()
}

// lookupAll searches memtable then runs newest-to-oldest.
func (ix *Index) lookupAll(sigLo uint64) (uint64, bool, error) {
	if rp, ok := ix.mem[sigLo]; ok {
		if rp == tombstoneRP {
			return 0, false, nil
		}
		return rp, true, nil
	}
	for _, r := range ix.runs {
		rp, found, err := ix.searchRun(r, sigLo)
		if err != nil {
			return 0, false, err
		}
		if found {
			if rp == tombstoneRP {
				return 0, false, nil
			}
			return rp, true, nil
		}
	}
	return 0, false, nil
}

// searchRun binary-searches the DRAM fence index, then the one candidate
// page (a flash read unless cached).
func (ix *Index) searchRun(r *run, sigLo uint64) (uint64, bool, error) {
	if len(r.pages) == 0 {
		return 0, false, nil
	}
	// Fence search in DRAM.
	ix.env.ChargeCPU(ix.cfg.CPUPerCompare * sim.Duration(bits(len(r.fences))))
	pi := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > sigLo }) - 1
	if pi < 0 {
		return 0, false, nil
	}
	data, err := ix.loadRunPage(r, pi)
	if err != nil {
		return 0, false, err
	}
	// Binary search within the page.
	n := r.counts[pi]
	ix.env.ChargeCPU(ix.cfg.CPUPerCompare * sim.Duration(bits(n)))
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		s := binary.LittleEndian.Uint64(data[mid*SlotSize:])
		switch {
		case s == sigLo:
			return readRP(data[mid*SlotSize+8:]), true, nil
		case s < sigLo:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false, nil
}

func (ix *Index) loadRunPage(r *run, pi int) ([]byte, error) {
	ppa := r.pages[pi]
	if data, ok := ix.cache.Get(uint64(ppa)); ok {
		return data, nil
	}
	data, err := ix.env.ReadPage(ppa)
	if err != nil {
		return nil, err
	}
	ix.cache.Put(uint64(ppa), data, int64(len(data)))
	return data, nil
}

// Delete implements index.Index: a memtable tombstone.
func (ix *Index) Delete(sig index.Sig) (uint64, bool, error) {
	ix.env.ChargeCPU(ix.cfg.CPUPerCompare * 8)
	rp, ok, err := ix.lookupAll(sig.Lo)
	if err != nil || !ok {
		return 0, false, err
	}
	ix.mem[sig.Lo] = tombstoneRP
	ix.n--
	if err := ix.chargeMemtable(); err != nil {
		return rp, true, err
	}
	return rp, true, ix.checkIO()
}

// Exist implements index.Index.
func (ix *Index) Exist(sig index.Sig) (bool, error) {
	_, ok, err := ix.Lookup(sig)
	return ok, err
}

// SharedLookupReady implements index.SharedReader. A lookup can run under
// the shard read lock when it cannot trigger a run-page load: either the
// memtable answers directly, or every run's one candidate page (located
// by the same fence search the lookup performs, replayed here without
// CPU charges) is DRAM-resident. Conservative: a hit in a newer run would
// stop the search early, but we require all candidates cached anyway.
func (ix *Index) SharedLookupReady(sig index.Sig) bool {
	if ix.ioErr != nil {
		return false
	}
	if _, ok := ix.mem[sig.Lo]; ok {
		return true
	}
	for _, r := range ix.runs {
		if len(r.pages) == 0 {
			continue
		}
		pi := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > sig.Lo }) - 1
		if pi < 0 {
			continue
		}
		if !ix.cache.Contains(uint64(r.pages[pi])) {
			return false
		}
	}
	return true
}

// PrefixRecords implements index.PrefixScanner, giving the LSM index
// prefix-iteration parity with RHIK for the cross-engine shootout. Runs
// are sorted by full signature — whose HIGH bits hash the key suffix —
// so prefix-sharing keys (equal LOW 32 bits) are scattered across every
// run and the scan must sweep the memtable plus each run page in order:
// a flash read per uncached page, versus RHIK's single-bucket read. That
// cost gap is real, not an artifact, and the shootout reports it.
// Newest version wins; tombstoned records are excluded.
func (ix *Index) PrefixRecords(low uint32) ([]uint64, error) {
	seen := make(map[uint64]struct{})
	var out []uint64
	add := func(sig, rp uint64) {
		if uint32(sig) != low {
			return
		}
		if _, dup := seen[sig]; dup {
			return
		}
		seen[sig] = struct{}{}
		if rp != tombstoneRP {
			out = append(out, rp)
		}
	}
	// Memtable first (newest), in sorted signature order: map iteration
	// order would otherwise vary run-to-run and perturb nothing here (no
	// IO), but deterministic enumeration is part of the contract.
	sigs := make([]uint64, 0, len(ix.mem))
	for s := range ix.mem {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	for _, s := range sigs {
		add(s, ix.mem[s])
	}
	for _, r := range ix.runs { // newest first
		for pi := range r.pages {
			data, err := ix.loadRunPage(r, pi)
			if err != nil {
				return nil, err
			}
			ix.env.ChargeCPU(ix.cfg.CPUPerCompare * sim.Duration(r.counts[pi]))
			for k := 0; k < r.counts[pi]; k++ {
				add(binary.LittleEndian.Uint64(data[k*SlotSize:]), readRP(data[k*SlotSize+8:]))
			}
		}
	}
	return out, ix.checkIO()
}

// memBytes is the memtable's current DRAM charge.
func (ix *Index) memBytes() int64 { return int64(len(ix.mem)) * memRecBytes }

// chargeMemtable makes the memtable pay for its DRAM out of the same
// CacheBudget that bounds the run-page cache: the page cache shrinks to
// the remainder (evicting pages as needed), and the memtable flushes
// early once it alone would hold more than half the budget — so a small
// CacheBudget can no longer shelter an uncharged ~10k-record memtable,
// which flattered the LSM against the budget-bounded hash indexes.
func (ix *Index) chargeMemtable() error {
	if len(ix.mem) >= ix.cfg.MemtableRecords || ix.memBytes()*2 > ix.cfg.CacheBudget {
		if err := ix.flushMemtable(); err != nil {
			return err
		}
	}
	ix.resizePageCache()
	return nil
}

// resizePageCache gives the run-page cache whatever DRAM the memtable's
// charge leaves of CacheBudget.
func (ix *Index) resizePageCache() {
	b := ix.cfg.CacheBudget - ix.memBytes()
	if b < 0 {
		b = 0
	}
	ix.cache.Resize(b)
}

// flushMemtable emits the memtable as a new sorted run, compacting when
// the run count exceeds the bound.
func (ix *Index) flushMemtable() error {
	if len(ix.mem) == 0 {
		return nil
	}
	recs := make([]rec, 0, len(ix.mem))
	for s, rp := range ix.mem {
		recs = append(recs, rec{sig: s, rp: rp})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].sig < recs[j].sig })
	r, err := ix.writeRun(recs, true)
	if err != nil {
		return err
	}
	ix.mem = make(map[uint64]uint64)
	ix.runs = append([]*run{r}, ix.runs...)
	ix.flushes++
	if len(ix.runs) > ix.cfg.MaxRuns {
		return ix.compact()
	}
	return nil
}

// writeRun serializes sorted records into run pages. keepTombstones
// controls whether delete markers survive (they must until the oldest
// run is rewritten).
func (ix *Index) writeRun(recs []rec, keepTombstones bool) (*run, error) {
	if !keepTombstones {
		filtered := recs[:0]
		for _, rc := range recs {
			if rc.rp != tombstoneRP {
				filtered = append(filtered, rc)
			}
		}
		recs = filtered
	}
	r := &run{}
	per := ix.recsPerPage()
	buf := make([]byte, 0, ix.cfg.PageSize)
	for off := 0; off < len(recs); off += per {
		end := off + per
		if end > len(recs) {
			end = len(recs)
		}
		buf = buf[:0]
		for _, rc := range recs[off:end] {
			var slot [SlotSize]byte
			binary.LittleEndian.PutUint64(slot[:8], rc.sig)
			writeRP(slot[8:], rc.rp)
			buf = append(buf, slot[:]...)
		}
		ppa, err := ix.env.AppendPage(buf)
		if err != nil {
			return nil, err
		}
		r.pages = append(r.pages, ppa)
		r.fences = append(r.fences, recs[off].sig)
		r.counts = append(r.counts, end-off)
		ix.owners[ppa] = ownerRef{r: r, pi: len(r.pages) - 1}
	}
	return r, nil
}

// compact merges every run (newest wins) into a single run, dropping
// tombstones, and invalidates all superseded pages.
func (ix *Index) compact() error {
	merged := make(map[uint64]uint64)
	for i := len(ix.runs) - 1; i >= 0; i-- { // oldest first; newer overwrite
		r := ix.runs[i]
		for pi := range r.pages {
			data, err := ix.loadRunPage(r, pi)
			if err != nil {
				return err
			}
			for k := 0; k < r.counts[pi]; k++ {
				sig := binary.LittleEndian.Uint64(data[k*SlotSize:])
				merged[sig] = readRP(data[k*SlotSize+8:])
			}
		}
	}
	recs := make([]rec, 0, len(merged))
	for s, rp := range merged {
		recs = append(recs, rec{sig: s, rp: rp})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].sig < recs[j].sig })

	old := ix.runs
	newRun, err := ix.writeRun(recs, false)
	if err != nil {
		return err
	}
	for _, r := range old {
		for _, ppa := range r.pages {
			ix.env.Invalidate(ppa)
			ix.cache.Remove(uint64(ppa))
			delete(ix.owners, ppa)
		}
	}
	ix.runs = []*run{newRun}
	ix.compactions++
	return nil
}

// Flush implements index.Index: persist the memtable as a run.
func (ix *Index) Flush() error {
	if err := ix.flushMemtable(); err != nil {
		return err
	}
	return ix.checkIO()
}

// Owner implements index.Relocator: the unit is the page address
// itself, resolved through the owner map on relocation.
func (ix *Index) Owner(p nand.PPA) (uint64, bool) {
	_, ok := ix.owners[p]
	return uint64(p), ok
}

// Relocate implements index.Relocator: rewrite the identified page to a
// fresh flash location and repoint its run.
func (ix *Index) Relocate(unit uint64) error {
	ppa := nand.PPA(unit)
	ref, ok := ix.owners[ppa]
	if !ok {
		return nil // already superseded
	}
	data, err := ix.loadRunPage(ref.r, ref.pi)
	if err != nil {
		return err
	}
	newPPA, err := ix.env.AppendPage(data)
	if err != nil {
		return err
	}
	ix.env.Invalidate(ppa)
	ix.cache.Remove(uint64(ppa))
	delete(ix.owners, ppa)
	ref.r.pages[ref.pi] = newPPA
	ix.owners[newPPA] = ref
	return nil
}

// IndexStats implements index.StatsProvider.
func (ix *Index) IndexStats() index.Stats {
	fences := 0
	for _, r := range ix.runs {
		fences += len(r.fences)
	}
	return index.Stats{
		Records:    ix.n,
		DirEntries: fences,
		DRAMBytes:  int64(fences*8) + ix.memBytes() + ix.cache.Used(),
		Cache:      ix.cache.Stats(),
	}
}

// Compactions reports how many full merges have run.
func (ix *Index) Compactions() int64 { return ix.compactions }

// Flushes reports how many memtable flushes have emitted a run.
func (ix *Index) Flushes() int64 { return ix.flushes }

func readRP(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32
}

func writeRP(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
}

// bits is a small ceil(log2) helper for comparison-cost accounting.
func bits(n int) int {
	b := 1
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// ResizeCache implements index.CacheResizer, adjusting the total index
// DRAM budget at runtime. The memtable's charge comes off the top; the
// run-page cache gets the remainder (run pages are clean, so a shrink
// just drops them).
func (ix *Index) ResizeCache(budget int64) {
	ix.cfg.CacheBudget = budget
	ix.resizePageCache()
}
