package device

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// reserve is the one place garbage collection runs: at the top of an
// exclusive command, before the index is touched, so a collection — whose
// relocations look keys up in the index and insert them again — never
// runs inside an index operation. It collects until the free pool holds
// GCLowWater blocks beyond demand, the blocks the command can allocate;
// a command that allocates nothing collects nothing. The allocators
// (ensureSlot, nextIndexPage) then only allocate. Cycles that make no
// forward progress — relocation consumed as many blocks as the erase
// freed — mean the device is effectively full of live data.
func (d *Device) reserve(demand int) error {
	if demand == 0 {
		return nil
	}
	stalled := 0
	for d.mgr.FreeBlocks() < d.cfg.GCLowWater+demand {
		before := d.mgr.FreeBlocks()
		if err := d.collect(); err != nil {
			return err
		}
		if d.mgr.FreeBlocks() <= before {
			stalled++
			if stalled >= 2 {
				return ErrDeviceFull
			}
		} else {
			stalled = 0
		}
	}
	return nil
}

// reserveRead is reserve for a command that stores nothing of its own: it
// allocates only to write back index pages it evicts, so a device too
// full to collect still serves it, on the low-water headroom.
func (d *Device) reserveRead(indexPages int) error {
	if err := d.reserve(d.indexBlocks(indexPages)); !errors.Is(err, ErrDeviceFull) {
		return err
	}
	return nil
}

// indexBlocks is the number of fresh blocks the index log takes to append
// pages more pages, after what is left of its open block.
func (d *Device) indexBlocks(pages int) int {
	ppb := d.flash.Config().PagesPerBlock
	if d.idxBlockOpen {
		pages -= ppb - d.idxNextPage
	}
	return max(0, (pages+ppb-1)/ppb)
}

// A point command — one key's Store, Delete, Retrieve or Exist — can
// write back one index page: the dirty table its page-in evicts, plus
// what its bucket splits write back (splitPages). The whole-index
// operations below are sized from the directory size D and the number
// of tables the index cache keeps. (The baselines' point commands can
// append a few pages more — a multi-level lookup pages in one table a
// level, an LSM insert can flush its memtable — which the low-water
// headroom absorbs.)

// cachedTables is how many index pages the cache keeps.
func (d *Device) cachedTables() int {
	return max(1, int(d.cfg.CacheBudget/int64(d.flash.Config().PageSize)))
}

// The bucket splits a command runs that are not a point command's, for
// splitPages.
const (
	drainSplits = 0  // finishes the migration in flight
	haltSplits  = -1 // doubles the index, draining inside the halt with HaltResize
)

// splitPages is the one sizing rule for the index pages RHIK's bucket
// splits make a command write back. Splitting an old bucket creates two
// dirty tables, either of which a later cache insert may evict, so a
// command that may split n old buckets may write back 2n pages. While a
// migration is in flight, each of a point command's ops index operations
// may split its background quota plus its key's bucket; that bound also
// covers the second operation paging its table in again should the
// first one's splits have evicted it. A command that drains the
// migration (drainSplits) splits every bucket it has left. A doubling
// (haltSplits) first drains the migration in flight; with HaltResize it
// then splits the whole directory in the halt and keeps the last tables
// it creates cached, so those D buckets cost 2D less the tables the
// cache keeps.
func (d *Device) splitPages(ops int) int {
	r, ok := d.idx.(*core.RHIK)
	if !ok {
		return 0
	}
	left, perOp := r.PendingSplits()
	switch {
	case ops > 0:
		return 2 * ops * perOp
	case ops == haltSplits && d.cfg.HaltResize:
		return 2*(left+r.DirEntries()) - d.cachedTables()
	default:
		return 2 * left
	}
}

// flushPages bounds the index pages a Flush or a whole-index enumeration
// can write back — every table dirty in the cache, and the tables
// draining a migration in flight creates — and reports D.
func (d *Device) flushPages() (pages, dirs int) {
	dirs = d.IndexStats().DirEntries
	return min(dirs, d.cachedTables()) + d.splitPages(drainSplits), dirs
}

// activeBlocks lists the blocks GC must never pick: open log heads
// across both writers' stripes, the index log head, and any block
// holding pages pinned by the persisted checkpoint (those pages are
// referenced by exact address and may be neither moved nor erased).
func (d *Device) activeBlocks() []nand.BlockID {
	var ex []nand.BlockID
	for _, w := range []*logWriter{&d.fg, &d.gcw} {
		for _, s := range w.slots {
			if s.open {
				ex = append(ex, s.block)
			}
		}
	}
	if d.idxBlockOpen {
		ex = append(ex, d.idxBlock)
	}
	seen := make(map[nand.BlockID]bool)
	for _, b := range ex {
		seen[b] = true
	}
	for p := range d.ckptPinned {
		if b := d.flash.BlockOf(p); !seen[b] {
			seen[b] = true
			ex = append(ex, b)
		}
	}
	// Blocks referenced by an open snapshot's frozen view are pinned in
	// place: the snapshot reads them lock-free by exact record pointer,
	// so they may be neither relocated nor erased until every referencing
	// snapshot is released.
	d.snapMu.Lock()
	for s := range d.snaps {
		for b := range s.blocks {
			if !seen[b] {
				seen[b] = true
				ex = append(ex, b)
			}
		}
	}
	d.snapMu.Unlock()
	return ex
}

// collect performs one GC cycle: pick the stalest block across both
// zones, relocate its live contents, erase it, and return it to the
// pool. The paper's algorithm (§IV-B): scan the key signatures in each
// flash page, validate each against the global index, relocate what is
// still live, discard the rest.
func (d *Device) collect() error {
	ex := d.activeBlocks()
	kvV, kvOK := d.mgr.Victim(ftl.ZoneKV, ex...)
	ixV, ixOK := d.mgr.Victim(ftl.ZoneIndex, ex...)

	var victim nand.BlockID
	switch {
	case kvOK && ixOK:
		// Prefer the candidate with proportionally less live data.
		if d.mgr.ValidBytes(kvV) <= d.mgr.ValidBytes(ixV) {
			victim = kvV
		} else {
			victim = ixV
		}
	case kvOK:
		victim = kvV
	case ixOK:
		victim = ixV
	default:
		return ErrDeviceFull
	}
	return d.collectBlock(victim)
}

// collectBlock relocates victim's live contents, erases it and returns
// it to the pool.
func (d *Device) collectBlock(victim nand.BlockID) error {
	// The erase below can yank pages out from under an in-flight
	// optimistic reader; the structure-mutation bracket turns any flash
	// error it sees into a retry.
	d.beginStructureMutation()
	defer d.endStructureMutation()
	d.stats.gcRuns.Add(1)

	var err error
	if d.mgr.Zone(victim) == ftl.ZoneKV {
		err = d.collectKV(victim)
	} else {
		err = d.collectIndex(victim)
	}
	if err != nil {
		return err
	}

	// Relocated pairs must be durable before their only other copy is
	// destroyed: flush the GC writer's open page ahead of the erase.
	if err := d.flushOpen(&d.gcw); err != nil {
		return err
	}

	done, err := d.flash.Erase(d.env.now.Load(), victim)
	if err != nil {
		return err
	}
	// A pinned reader may still hold slices into the erased block's page
	// buffers; route them through the reclaim domain instead of straight
	// back into the program pool.
	if bufs := d.flash.TakeLimbo(); len(bufs) != 0 {
		d.reclaim.Retire(func() { d.flash.RecycleBuffers(bufs) })
	}
	d.env.now.AdvanceTo(done)
	d.mgr.Release(victim)
	d.collectRetired()
	return nil
}

// collectKV relocates live pairs out of a KV-zone victim block.
func (d *Device) collectKV(victim nand.BlockID) error {
	pages := d.flash.ProgrammedPages(victim)
	for pi := 0; pi < pages; pi++ {
		ppa := d.flash.PPAOf(victim, pi)
		data, spare, done, err := d.flash.Read(d.env.now.Load(), ppa)
		if err != nil {
			return err
		}
		d.env.now.AdvanceTo(done)
		kind, _, _, err := layout.DecodeSpare(spare)
		if err != nil {
			return err
		}
		if kind != layout.KindData {
			continue // continuations move with their head page
		}
		infos, err := layout.DecodeSigArea(data)
		if err != nil {
			return err
		}
		for slot, info := range infos {
			hdr, key, inline, err := layout.DecodePairAt(data, int(info.Offset))
			if err != nil {
				return err
			}
			if hdr.Tombstone() {
				continue
			}
			rp := layout.MakeRP(uint64(ppa), slot)
			sig := d.scheme.Compute(key)
			cur, ok, err := d.idx.Lookup(sig)
			if err != nil {
				return err
			}
			if !ok || cur != uint64(rp) {
				continue // stale version
			}
			// Key and value go to the writer straight from the victim's
			// page: the builder copies them, and the victim is erased only
			// after this loop. An extent's reassembly is a private copy.
			value := inline
			if hdr.ValueLen > len(inline) {
				var done sim.Time
				if value, done, err = d.readExtent(d.env.now.Load(), ppa, inline, hdr.ValueLen); err != nil {
					return fmt.Errorf("device: gc extent read: %w", err)
				}
				d.env.now.AdvanceTo(done)
			}

			d.seq++
			// The relocated copy is re-stamped with the OPEN epoch, not the
			// original: snapshot-referenced blocks are never victims, so no
			// frozen view points here, and a too-new stamp only makes a
			// snapshot's fast path fall back to its (correct) frozen view.
			// Preserving originals would break the page-local monotone
			// delta encoding.
			p := layout.Pair{
				Sig:   sig.Lo,
				Key:   key,
				Value: value,
				Seq:   d.seq,
				Epoch: d.wepoch.Load() + 1,
			}
			live := liveSize(len(p.Key), len(p.Value))
			var newRP layout.RP
			if layout.ExtentPages(d.flash.Config().PageSize, len(p.Key), len(p.Value)) > 1 {
				newRP, err = d.appendExtent(&d.gcw, p, live)
			} else {
				newRP, err = d.appendPair(&d.gcw, p, live)
			}
			if err != nil {
				return err
			}
			if _, _, err := d.idx.Insert(sig, uint64(newRP)); err != nil {
				return fmt.Errorf("device: gc reinsert: %w", err)
			}
			d.stats.gcPagesMoved.Add(1)
			d.stats.gcBytesMoved.Add(int64(live))
		}
	}
	return nil
}

// collectIndex relocates live index and checkpoint pages out of an
// index-zone victim block. idxPageSize holds exactly the zone's pages
// that still count as valid, so a page missing from it is superseded
// and is skipped without paying a flash read for its spare.
func (d *Device) collectIndex(victim nand.BlockID) error {
	rel, _ := d.idx.(index.Relocator)
	pages := d.flash.ProgrammedPages(victim)
	for pi := 0; pi < pages; pi++ {
		ppa := d.flash.PPAOf(victim, pi)
		if _, valid := d.idxPageSize[ppa]; !valid {
			continue
		}
		_, spare, done, err := d.flash.Read(d.env.now.Load(), ppa)
		if err != nil {
			return err
		}
		d.env.now.AdvanceTo(done)
		kind, _, _, err := layout.DecodeSpare(spare)
		if err != nil {
			return err
		}
		switch kind {
		case layout.KindIndex:
			if rel == nil {
				continue
			}
			if unit, live := rel.Owner(ppa); live {
				if err := rel.Relocate(unit); err != nil {
					return err
				}
				d.stats.gcPagesMoved.Add(1)
			}
		case layout.KindCheckpoint:
			if err := d.relocateCheckpointPage(ppa); err != nil {
				return err
			}
		}
	}
	return nil
}
