package device

import (
	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// idxEnv implements index.Env over the device. Index page I/O blocks the
// firmware cursor (`now`): the mapping must resolve before the command
// can proceed, so metadata misses directly throttle the device — the
// effect Figs. 2 and 5 quantify.
//
// The cursor is atomic because concurrent readers (the lock-free tier)
// advance the same firmware timeline: every assignment in the device is
// a monotone advance, so CAS-max (AdvanceTo) preserves the exact
// single-threaded arithmetic while staying race-clean under contention.
// ReadPage/AppendPage/Invalidate restructure device state and only run
// under the exclusive lock.
type idxEnv struct {
	d   *Device
	now sim.AtomicTime
	// reads counts the index pages ReadPage read for the command that
	// holds the exclusive lock; each command zeroes it before its index
	// operations and records it after. Writer-side only: a lock-free
	// read charges its page with chargePage and counts it itself.
	reads int64
}

var (
	_ index.Env        = (*idxEnv)(nil)
	_ index.PagePeeker = (*idxEnv)(nil)
)

func (e *idxEnv) ReadPage(p nand.PPA) ([]byte, error) {
	data, err := e.chargePage(p)
	if err == nil {
		e.reads++
	}
	return data, err
}

// chargePage reads index page p on the firmware timeline, which the read
// blocks: the mapping must resolve before the command proceeds. It is
// ReadPage's charge, and the one a lock-free probe that answered from
// the page's image pays for it.
func (e *idxEnv) chargePage(p nand.PPA) ([]byte, error) {
	data, _, done, err := e.d.flash.Read(e.now.Load(), p)
	if err != nil {
		return nil, err
	}
	e.now.AdvanceTo(done)
	return data, nil
}

// PeekPage is the uncharged read the lock-free probe decides with.
func (e *idxEnv) PeekPage(p nand.PPA) []byte { return e.d.flash.Peek(p) }

func (e *idxEnv) AppendPage(data []byte) (nand.PPA, error) {
	ppa, err := e.d.nextIndexPage()
	if err != nil {
		return 0, err
	}
	spare := layout.EncodeSpare(layout.KindIndex, 0, 0)
	done, err := e.d.flash.Program(e.now.Load(), ppa, data, spare)
	if err != nil {
		return 0, err
	}
	e.now.AdvanceTo(done)
	e.d.mgr.OnWrite(e.d.flash.BlockOf(ppa), int64(len(data)))
	e.d.idxPageSize[ppa] = int32(len(data))
	return ppa, nil
}

func (e *idxEnv) Invalidate(p nand.PPA) {
	if e.d.ckptPinned[p] {
		// The persisted checkpoint still references this page: defer the
		// invalidation so the page (and its accounting) survives until
		// the next checkpoint supersedes it.
		e.d.deferredInval = append(e.d.deferredInval, p)
		return
	}
	size, ok := e.d.idxPageSize[p]
	if !ok {
		return
	}
	delete(e.d.idxPageSize, p)
	e.d.mgr.OnInvalidate(e.d.flash.BlockOf(p), int64(size))
}

func (e *idxEnv) ChargeCPU(d sim.Duration) { e.now.Advance(d) }

func (e *idxEnv) Now() sim.Time { return e.now.Load() }

// nextIndexPage takes the next page of the index-zone log, allocating a
// fresh block as needed. It never collects: the command's reserve did.
func (d *Device) nextIndexPage() (nand.PPA, error) {
	geo := d.flash.Config()
	if d.idxBlockOpen && d.idxNextPage >= geo.PagesPerBlock {
		d.idxBlockOpen = false
	}
	if !d.idxBlockOpen {
		b, err := d.mgr.Alloc(ftl.ZoneIndex)
		if err != nil {
			return 0, ErrDeviceFull
		}
		d.idxBlock = b
		d.idxNextPage = 0
		d.idxBlockOpen = true
	}
	ppa := d.flash.PPAOf(d.idxBlock, d.idxNextPage)
	d.idxNextPage++
	return ppa, nil
}
