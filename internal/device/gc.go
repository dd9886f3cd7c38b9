package device

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
)

// maybeGC runs garbage collection cycles until the free pool rises above
// the low-water mark. Allocations made while collecting bypass the
// trigger (the pool headroom exists for exactly that). Cycles that make
// no forward progress — relocation consumed as many blocks as the erase
// freed — mean the device is effectively full of live data.
func (d *Device) maybeGC() error {
	if d.inGC {
		return nil
	}
	stalled := 0
	for d.mgr.FreeBlocks() <= d.cfg.GCLowWater {
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

	d.inGC = true
	defer func() { d.inGC = false }()
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
			value := inline
			if hdr.ValueLen > len(inline) {
				// Reassemble the extent from this block's continuations.
				full := make([]byte, 0, hdr.ValueLen)
				full = append(full, inline...)
				readAt := d.env.now.Load()
				for i := 1; len(full) < hdr.ValueLen; i++ {
					cont, _, cd, err := d.flash.Read(readAt, ppa+nand.PPA(i))
					if err != nil {
						return fmt.Errorf("device: gc extent read: %w", err)
					}
					readAt = cd
					full = append(full, cont...)
				}
				d.env.now.AdvanceTo(readAt)
				if len(full) > hdr.ValueLen {
					full = full[:hdr.ValueLen]
				}
				value = full
			}

			d.seq++
			// Copy key/value out of the flash-owned buffers before they
			// are erased. The relocated copy is re-stamped with the OPEN
			// epoch, not the original: snapshot-referenced blocks are never
			// victims, so no frozen view points here, and a too-new stamp
			// only makes a snapshot's fast path fall back to its (correct)
			// frozen view. Preserving originals would break the page-local
			// monotone delta encoding.
			p := layout.Pair{
				Sig:   sig.Lo,
				Key:   append([]byte(nil), key...),
				Value: append([]byte(nil), value...),
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
