package device

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
)

// Restart simulates a power cycle: every DRAM-resident structure — open
// page buffers, the index cache, the directory, FTL accounting — is
// discarded and rebuilt from flash. Recovery loads the newest complete
// directory checkpoint and then replays the KV log: pairs with sequence
// numbers above the checkpoint are re-applied in order (tombstones
// delete), so every acknowledged-and-programmed write survives. Pairs
// still in the volatile open-page buffer at the crash are lost, matching
// write-cache semantics; Close/Checkpoint bound that window.
func (d *Device) Restart() error {
	if d.closed.Load() {
		return ErrClosed
	}
	// The whole rebuild is one structure mutation: an optimistic reader
	// overlapping it retries instead of surfacing a transient error, and
	// its result linearizes before the power cycle.
	d.beginStructureMutation()
	defer d.endStructureMutation()
	// A power cycle invalidates every open snapshot: their frozen views
	// reference pre-crash block contents the rebuild may reclaim.
	d.invalidateSnapshots()
	// Drop all volatile state: the open pages with the pairs they buffer,
	// the index cache and directory, FTL accounting. The hot-value tier
	// goes too: replay can roll back the unflushed write tail, and a
	// value cached from a lost open page must not outlive the data.
	if d.vcache != nil {
		d.vcache.Flush()
	}
	d.fg = d.newLogWriter("fg")
	d.gcw = d.newLogWriter("gc")
	d.idxBlockOpen = false
	d.inflight = nil
	d.idxPageSize = make(map[nand.PPA]int32)
	d.mgr = ftl.NewManager(d.flash)
	d.ckptPages = nil
	d.ckptPinned = make(map[nand.PPA]bool)
	d.deferredInval = nil

	// Garbage collection runs only from reserve, which nothing below calls
	// until the accounting is complete: until then, allocations draw on
	// the pool headroom directly.
	idx, err := d.buildIndex()
	if err != nil {
		return err
	}
	d.idx = idx
	if r, ok := idx.(*core.RHIK); ok {
		d.optIdx.Store(r)
	} else {
		d.optIdx.Store(nil)
	}

	// Phase 1: scan every programmed page and classify it.
	type scannedPage struct {
		ppa  nand.PPA
		data []byte
		base uint64 // data pages: base write epoch from the spare area
	}
	var dataPages []scannedPage
	var idxPages []scannedPage
	var chunks []ckptChunk
	geo := d.flash.Config()
	for b := 0; b < geo.TotalBlocks(); b++ {
		bid := nand.BlockID(b)
		pages := d.flash.ProgrammedPages(bid)
		if pages == 0 {
			continue
		}
		zone := ftl.ZoneKV
		for pi := 0; pi < pages; pi++ {
			ppa := d.flash.PPAOf(bid, pi)
			data, spare, done, err := d.flash.Read(d.env.now.Load(), ppa)
			if err != nil {
				return fmt.Errorf("device: recovery scan: %w", err)
			}
			d.env.now.AdvanceTo(done)
			kind, owner, seg, err := layout.DecodeSpare(spare)
			if err != nil {
				return fmt.Errorf("device: recovery spare: %w", err)
			}
			switch kind {
			case layout.KindData:
				dataPages = append(dataPages, scannedPage{ppa, data, layout.DataSpareEpoch(spare)})
			case layout.KindContinuation:
				// Accounted with its head page.
			case layout.KindIndex:
				idxPages = append(idxPages, scannedPage{ppa: ppa, data: data})
				zone = ftl.ZoneIndex
			case layout.KindCheckpoint:
				chunks = append(chunks, ckptChunk{
					gen:  uint64(owner),
					seg:  seg,
					data: data,
					ppa:  ppa,
				})
				zone = ftl.ZoneIndex
			default:
				return fmt.Errorf("device: recovery: unknown page kind %d at %d", kind, ppa)
			}
		}
		d.mgr.Adopt(bid, zone)
	}

	// Phase 2: restore the newest complete checkpoint, if any, and give
	// every scanned index-zone page a live-baseline accounting so that
	// invalidations during replay balance.
	var ckptSeq uint64
	state, seq, gen, ckpages, haveCkpt := assembleCheckpoint(chunks)
	if haveCkpt {
		if ck, isCk := d.idx.(index.Checkpointer); isCk {
			if err := ck.LoadState(state); err != nil {
				return fmt.Errorf("device: recovery checkpoint: %w", err)
			}
			ckptSeq = seq
			d.ckptID = gen
			d.ckptPages = ckpages
			// Pin the pages the PERSISTED state references before the
			// replay can supersede any of them: a second crash before
			// the next checkpoint must find this same recovery root
			// intact.
			for _, p := range ck.PersistentPages() {
				d.ckptPinned[p] = true
			}
		}
	}
	d.ckptSeq = ckptSeq
	for _, ip := range idxPages {
		d.mgr.OnWrite(d.flash.BlockOf(ip.ppa), int64(len(ip.data)))
		d.idxPageSize[ip.ppa] = int32(len(ip.data))
	}
	for _, c := range chunks {
		d.mgr.OnWrite(d.flash.BlockOf(c.ppa), int64(len(c.data)))
		d.idxPageSize[c.ppa] = int32(len(c.data))
	}

	// While rebuilding, the index may use all device DRAM — no user data
	// is cached yet — so the replay does not thrash a small budget into
	// per-insert flash write-backs. The budget is restored at the end.
	// (This must follow LoadState, which rebuilds the cache.)
	if cr, ok := d.idx.(index.CacheResizer); ok {
		cr.ResizeCache(1 << 30)
	}

	// Phase 3: replay the KV log above the checkpoint, in sequence order.
	type replayRec struct {
		seq  uint64
		sig  index.Sig
		rp   layout.RP
		tomb bool
	}
	var replay []replayRec
	maxSeq := ckptSeq
	var maxEpoch uint64
	for _, dp := range dataPages {
		infos, err := layout.DecodeSigArea(dp.data)
		if err != nil {
			return fmt.Errorf("device: recovery page %d: %w", dp.ppa, err)
		}
		for slot, info := range infos {
			hdr, key, _, err := layout.DecodePairAt(dp.data, int(info.Offset))
			if err != nil {
				return err
			}
			if hdr.Seq > maxSeq {
				maxSeq = hdr.Seq
			}
			if e := dp.base + uint64(info.EpochDelta); e > maxEpoch {
				maxEpoch = e
			}
			if hdr.Seq <= ckptSeq {
				continue
			}
			replay = append(replay, replayRec{
				seq:  hdr.Seq,
				sig:  d.scheme.Compute(key),
				rp:   layout.MakeRP(uint64(dp.ppa), slot),
				tomb: hdr.Tombstone(),
			})
		}
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].seq < replay[j].seq })
	for _, r := range replay {
		if r.tomb {
			if _, _, err := d.idx.Delete(r.sig); err != nil {
				return fmt.Errorf("device: recovery replay delete: %w", err)
			}
			continue
		}
		if _, _, err := d.idx.Insert(r.sig, uint64(r.rp)); err != nil {
			return fmt.Errorf("device: recovery replay insert: %w", err)
		}
	}
	d.seq = maxSeq
	// Restore the write epoch to the newest stamp on flash so post-crash
	// batches stay monotone above every surviving record.
	d.wepoch.Store(maxEpoch)

	// Phase 4: settle liveness. Data pairs are validated against the
	// final index; scanned index-zone pages that are neither referenced
	// by the index nor part of the current checkpoint become stale.
	for _, dp := range dataPages {
		bid := d.flash.BlockOf(dp.ppa)
		infos, err := layout.DecodeSigArea(dp.data)
		if err != nil {
			return err
		}
		for slot, info := range infos {
			hdr, key, _, err := layout.DecodePairAt(dp.data, int(info.Offset))
			if err != nil {
				return err
			}
			if hdr.Tombstone() {
				d.mgr.OnWriteDead(bid, int64(liveSize(hdr.KeyLen, 0)))
				continue
			}
			size := int64(liveSize(hdr.KeyLen, hdr.ValueLen))
			rp := layout.MakeRP(uint64(dp.ppa), slot)
			cur, ok, err := d.idx.Lookup(d.scheme.Compute(key))
			if err != nil {
				return err
			}
			if ok && cur == uint64(rp) {
				d.mgr.OnWrite(bid, size)
			} else {
				d.mgr.OnWriteDead(bid, size)
			}
		}
	}
	rel, _ := d.idx.(index.Relocator)
	current := make(map[nand.PPA]bool, len(d.ckptPages))
	for _, p := range d.ckptPages {
		current[p] = true
	}
	sweep := make([]nand.PPA, 0, len(idxPages)+len(chunks))
	for _, ip := range idxPages {
		sweep = append(sweep, ip.ppa)
	}
	for _, c := range chunks {
		sweep = append(sweep, c.ppa)
	}
	for _, ppa := range sweep {
		if _, still := d.idxPageSize[ppa]; !still {
			continue // already invalidated during replay
		}
		live := current[ppa]
		if !live && rel != nil {
			_, live = rel.Owner(ppa)
		}
		if !live {
			d.env.Invalidate(ppa)
		}
	}

	// Accounting is complete: GC may run again. Persist the rebuilt index
	// state — the replay's cache held every table, so every one can be
	// dirty — and shrink the cache back to its configured budget.
	if err := d.reserve(d.indexBlocks(d.IndexStats().DirEntries)); err != nil {
		return err
	}
	if err := d.idx.Flush(); err != nil {
		return err
	}
	if cr, ok := d.idx.(index.CacheResizer); ok {
		cr.ResizeCache(d.cfg.CacheBudget)
	}

	d.stats.recoveries.Add(1)
	d.mutsSince = 0
	return nil
}
