package nand

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// PPA is a physical page address: a device-wide page index. The on-flash
// index encodes PPAs in 5 bytes (Eq. 1), far above any emulated geometry.
type PPA uint64

// BlockID is a device-wide erase block index.
type BlockID uint32

// Errors returned by flash operations.
var (
	ErrOutOfRange    = errors.New("nand: address out of range")
	ErrNotProgrammed = errors.New("nand: reading an unwritten page")
	ErrOverwrite     = errors.New("nand: programming a written page without erase")
	ErrProgramOrder  = errors.New("nand: pages in a block must be programmed in order")
	ErrOversize      = errors.New("nand: payload exceeds page area")
	// ErrReadFault is an injected uncorrectable read error (ECC failure),
	// used to test the device's error paths.
	ErrReadFault = errors.New("nand: uncorrectable read error (injected)")
	// ErrProgramFault is an injected program failure.
	ErrProgramFault = errors.New("nand: program failure (injected)")
)

// Stats counts flash operations and traffic since device power-on.
type Stats struct {
	Reads      int64
	Programs   int64
	Erases     int64
	ReadBytes  int64
	WriteBytes int64
}

// flashStats is the live counter set. Reads run concurrently on the
// lock-free read tier, so the counters are atomics; Stats() snapshots
// them into the plain exported struct.
type flashStats struct {
	reads      atomic.Int64
	programs   atomic.Int64
	erases     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

// flashPage is one programmed page's payload. Pages are published to
// concurrent readers by storing a *flashPage into the block's pointer
// array, so a reader sees either the whole page or nil — never a torn
// data/spare pair.
type flashPage struct {
	data  []byte
	spare []byte
}

type block struct {
	// pages points to a fixed array of per-page pointers; nil until the
	// block is first programmed. Entries are nil until programmed and
	// reset to nil by Erase. Both levels are atomic so lock-free readers
	// can race Program/Erase without torn state.
	pages      atomic.Pointer[[]atomic.Pointer[flashPage]]
	programmed atomic.Int32 // pages programmed so far (program order enforced)
	erases     atomic.Int64
}

// Flash is the emulated NAND array. Reads may run concurrently (they
// only touch programmed pages, schedule die/channel resources, and bump
// atomic counters); Program and Erase mutate block state and must be
// serialized by the caller — the device only writes under the shard's
// exclusive lock.
type Flash struct {
	cfg    Config
	clock  *sim.Clock
	dies   []*sim.Resource
	chans  []*sim.Resource
	blocks []block
	stats  flashStats
	// bufPool recycles full-size page buffers freed by Erase; Program
	// draws from it, keeping high-churn workloads off the Go allocator.
	bufPool [][]byte
	// limbo holds buffers Erase unlinked but that an in-flight optimistic
	// reader may still alias. The device drains it with TakeLimbo and
	// retires the batch to its epoch domain, which calls RecycleBuffers
	// once no pinned reader can hold a reference.
	limbo [][]byte

	failReads    atomic.Int64 // countdown of injected read faults
	failPrograms atomic.Int64 // countdown of injected program faults
}

// FailNextReads arms n injected uncorrectable read errors: the next n
// Read calls fail with ErrReadFault. Testing hook.
func (f *Flash) FailNextReads(n int) { f.failReads.Store(int64(n)) }

// FailNextPrograms arms n injected program failures. Testing hook.
func (f *Flash) FailNextPrograms(n int) { f.failPrograms.Store(int64(n)) }

// consumeFault decrements an armed fault countdown, reporting whether
// this call consumed a fault. CAS keeps concurrent readers from
// consuming the same injected fault twice.
func consumeFault(c *atomic.Int64) bool {
	for {
		n := c.Load()
		if n <= 0 {
			return false
		}
		if c.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// New builds a flash array on the given clock. It panics on invalid
// geometry; validate configs at the device boundary.
func New(cfg Config, clock *sim.Clock) *Flash {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Flash{
		cfg:    cfg,
		clock:  clock,
		blocks: make([]block, cfg.TotalBlocks()),
	}
	for d := 0; d < cfg.Dies(); d++ {
		f.dies = append(f.dies, sim.NewResource(fmt.Sprintf("die%d", d)))
	}
	for c := 0; c < cfg.Channels; c++ {
		f.chans = append(f.chans, sim.NewResource(fmt.Sprintf("chan%d", c)))
	}
	return f
}

// Config returns the geometry the array was built with.
func (f *Flash) Config() Config { return f.cfg }

// Stats returns a snapshot of the operation counters.
func (f *Flash) Stats() Stats {
	return Stats{
		Reads:      f.stats.reads.Load(),
		Programs:   f.stats.programs.Load(),
		Erases:     f.stats.erases.Load(),
		ReadBytes:  f.stats.readBytes.Load(),
		WriteBytes: f.stats.writeBytes.Load(),
	}
}

// BlockOf maps a page address to its erase block.
func (f *Flash) BlockOf(p PPA) BlockID {
	return BlockID(uint64(p) / uint64(f.cfg.PagesPerBlock))
}

// PageIndex maps a page address to its index within its block.
func (f *Flash) PageIndex(p PPA) int {
	return int(uint64(p) % uint64(f.cfg.PagesPerBlock))
}

// PPAOf composes a page address from a block and in-block page index.
func (f *Flash) PPAOf(b BlockID, page int) PPA {
	return PPA(uint64(b)*uint64(f.cfg.PagesPerBlock) + uint64(page))
}

func (f *Flash) dieOf(b BlockID) int {
	return int(b) / f.cfg.BlocksPerDie
}

func (f *Flash) chanOf(b BlockID) int {
	return f.dieOf(b) / f.cfg.DiesPerChan
}

// copyData stores a private copy of a programmed payload, reusing
// recycled page buffers where possible.
func (f *Flash) copyData(data []byte) []byte {
	if n := len(f.bufPool); n > 0 {
		buf := f.bufPool[n-1]
		f.bufPool = f.bufPool[:n-1]
		buf = buf[:cap(buf)]
		if len(data) <= len(buf) {
			copy(buf, data)
			return buf[:len(data)]
		}
		f.bufPool = append(f.bufPool, buf)
	}
	// Allocate at full page capacity so the buffer is reusable later.
	buf := make([]byte, len(data), f.cfg.PageSize)
	copy(buf, data)
	return buf
}

func (f *Flash) checkPPA(p PPA) error {
	if int64(p) >= f.cfg.TotalPages() {
		return fmt.Errorf("%w: ppa %d >= %d", ErrOutOfRange, p, f.cfg.TotalPages())
	}
	return nil
}

// Read performs a page read issued at time `at`. It returns the page's
// data and spare areas and the operation's completion time. The returned
// slices alias the array's internal storage and must not be modified.
func (f *Flash) Read(at sim.Time, p PPA) (data, spare []byte, done sim.Time, err error) {
	if err = f.checkPPA(p); err != nil {
		return nil, nil, at, err
	}
	if consumeFault(&f.failReads) {
		return nil, nil, at, fmt.Errorf("%w: ppa %d", ErrReadFault, p)
	}
	bid := f.BlockOf(p)
	blk := &f.blocks[bid]
	pi := f.PageIndex(p)
	arr := blk.pages.Load()
	if arr == nil {
		return nil, nil, at, fmt.Errorf("%w: ppa %d", ErrNotProgrammed, p)
	}
	pg := (*arr)[pi].Load()
	if pg == nil {
		return nil, nil, at, fmt.Errorf("%w: ppa %d", ErrNotProgrammed, p)
	}
	data = pg.data
	spare = pg.spare

	_, dieDone := f.dies[f.dieOf(bid)].Acquire(at, f.cfg.ReadLatency)
	_, done = f.chans[f.chanOf(bid)].Acquire(dieDone, f.cfg.xferTime(len(data)+len(spare)))
	f.stats.reads.Add(1)
	f.stats.readBytes.Add(int64(len(data) + len(spare)))
	return data, spare, done, nil
}

// Program writes data and spare to page p at time `at`. NAND constraints
// are enforced: the page must be erased and pages within a block must be
// programmed in ascending order. Both buffers are copied.
func (f *Flash) Program(at sim.Time, p PPA, data, spare []byte) (done sim.Time, err error) {
	if err = f.checkPPA(p); err != nil {
		return at, err
	}
	if len(data) > f.cfg.PageSize {
		return at, fmt.Errorf("%w: data %d > page %d", ErrOversize, len(data), f.cfg.PageSize)
	}
	if len(spare) > f.cfg.SpareSize {
		return at, fmt.Errorf("%w: spare %d > %d", ErrOversize, len(spare), f.cfg.SpareSize)
	}
	if consumeFault(&f.failPrograms) {
		return at, fmt.Errorf("%w: ppa %d", ErrProgramFault, p)
	}
	bid := f.BlockOf(p)
	blk := &f.blocks[bid]
	pi := f.PageIndex(p)
	arr := blk.pages.Load()
	if arr == nil {
		a := make([]atomic.Pointer[flashPage], f.cfg.PagesPerBlock)
		blk.pages.Store(&a)
		arr = &a
	}
	programmed := int(blk.programmed.Load())
	if pi < programmed {
		return at, fmt.Errorf("%w: ppa %d", ErrOverwrite, p)
	}
	if pi != programmed {
		return at, fmt.Errorf("%w: ppa %d is page %d, next programmable is %d",
			ErrProgramOrder, p, pi, programmed)
	}
	(*arr)[pi].Store(&flashPage{
		data:  f.copyData(data),
		spare: append([]byte(nil), spare...),
	})
	blk.programmed.Add(1)

	_, chanDone := f.chans[f.chanOf(bid)].Acquire(at, f.cfg.xferTime(len(data)+len(spare)))
	_, done = f.dies[f.dieOf(bid)].Acquire(chanDone, f.cfg.ProgramLatency)
	f.stats.programs.Add(1)
	f.stats.writeBytes.Add(int64(len(data) + len(spare)))
	return done, nil
}

// Erase wipes block b at time `at`, unlinking its page storage and
// incrementing its wear counter. Freed full-size data buffers go to the
// limbo list rather than straight back to the program pool: an
// optimistic reader that validated before the erase may still alias
// them, so the device must quarantine the batch behind its epoch domain
// (TakeLimbo → epoch.Retire → RecycleBuffers) before reuse.
func (f *Flash) Erase(at sim.Time, b BlockID) (done sim.Time, err error) {
	if int(b) >= len(f.blocks) {
		return at, fmt.Errorf("%w: block %d >= %d", ErrOutOfRange, b, len(f.blocks))
	}
	blk := &f.blocks[b]
	if arr := blk.pages.Load(); arr != nil {
		for i := range *arr {
			pg := (*arr)[i].Swap(nil)
			if pg == nil {
				continue
			}
			// Quarantine full-size buffers; odd-size tails go to the GC.
			if cap(pg.data) == f.cfg.PageSize && len(f.limbo) < 4*f.cfg.PagesPerBlock {
				f.limbo = append(f.limbo, pg.data)
			}
		}
	}
	blk.programmed.Store(0)
	blk.erases.Add(1)

	_, done = f.dies[f.dieOf(b)].Acquire(at, f.cfg.EraseLatency)
	f.stats.erases.Add(1)
	return done, nil
}

// TakeLimbo hands the caller every buffer quarantined by Erase since the
// last call. Writer-side; the caller owns the batch and must not reuse
// the buffers until all concurrent readers have quiesced.
func (f *Flash) TakeLimbo() [][]byte {
	l := f.limbo
	f.limbo = nil
	return l
}

// RecycleBuffers returns quarantined buffers to the program pool once
// the caller has proven no reader can alias them. Writer-side.
func (f *Flash) RecycleBuffers(bufs [][]byte) {
	for _, buf := range bufs {
		if cap(buf) == f.cfg.PageSize && len(f.bufPool) < 4*f.cfg.PagesPerBlock {
			f.bufPool = append(f.bufPool, buf)
		}
	}
}

// PageReadable reports whether page p is programmed and readable, as a
// pure check: no fault consumption, no resource scheduling, no counter
// updates. Safe from any goroutine; the optimistic read path uses it to
// refuse volatile (pending/unprogrammed) pages before charging any
// simulated time.
func (f *Flash) PageReadable(p PPA) bool { return f.page(p) != nil }

// Peek returns page p's data area, or nil when p is not programmed, with
// none of Read's side effects: no fault consumption, no resource
// scheduling, no counter updates. The slice aliases the array's storage
// like Read's. Safe from any goroutine; the optimistic read path probes
// an index page with it and charges the read only once it knows the
// page answers the command.
func (f *Flash) Peek(p PPA) []byte {
	if pg := f.page(p); pg != nil {
		return pg.data
	}
	return nil
}

// page loads page p's published payload, nil when unprogrammed or out
// of range.
func (f *Flash) page(p PPA) *flashPage {
	if f.checkPPA(p) != nil {
		return nil
	}
	arr := f.blocks[f.BlockOf(p)].pages.Load()
	if arr == nil {
		return nil
	}
	return (*arr)[f.PageIndex(p)].Load()
}

// ProgrammedPages reports how many pages of block b are written.
func (f *Flash) ProgrammedPages(b BlockID) int {
	if int(b) >= len(f.blocks) {
		return 0
	}
	return int(f.blocks[b].programmed.Load())
}

// EraseCount reports block b's wear (number of erases).
func (f *Flash) EraseCount(b BlockID) int64 {
	if int(b) >= len(f.blocks) {
		return 0
	}
	return f.blocks[b].erases.Load()
}

// DieUtilization reports the mean busy fraction across dies at time now.
func (f *Flash) DieUtilization(now sim.Time) float64 {
	if len(f.dies) == 0 {
		return 0
	}
	var sum float64
	for _, d := range f.dies {
		sum += d.Utilization(now)
	}
	return sum / float64(len(f.dies))
}

// BusyUntil reports the latest completion time across all dies — the time
// at which every in-flight flash operation has finished.
func (f *Flash) BusyUntil() sim.Time {
	var t sim.Time
	for _, d := range f.dies {
		if d.BusyUntil() > t {
			t = d.BusyUntil()
		}
	}
	for _, c := range f.chans {
		if c.BusyUntil() > t {
			t = c.BusyUntil()
		}
	}
	return t
}
