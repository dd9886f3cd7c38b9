package device

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/ftl"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// acquireBufferSlot blocks the firmware until a write-buffer slot is
// free, bounding outstanding page programs (device-buffer backpressure).
func (d *Device) acquireBufferSlot() {
	if len(d.inflight) < d.cfg.WriteBufferPages {
		return
	}
	oldest := d.inflight[0]
	d.inflight = d.inflight[1:]
	d.env.now.AdvanceTo(oldest)
}

// programData schedules a data-page program through the write buffer.
// The firmware does not wait for completion; the die does the work.
func (d *Device) programData(ppa nand.PPA, data, spare []byte) (sim.Time, error) {
	d.acquireBufferSlot()
	done, err := d.flash.Program(d.env.now.Load(), ppa, data, spare)
	if err != nil {
		return done, err
	}
	d.inflight = append(d.inflight, done)
	return done, nil
}

// newLogWriter builds an empty striped writer.
func (d *Device) newLogWriter(name string) logWriter {
	return logWriter{
		name:    name,
		slots:   make([]stripeSlot, d.cfg.StripeWidth),
		builder: layout.NewPageBuilder(d.flash.Config().PageSize),
	}
}

// ensureSlot guarantees stripe slot si has an open block with at least
// `pages` programmable pages left, sealing and allocating as needed. It
// never collects: the command's reserve did.
func (d *Device) ensureSlot(w *logWriter, si, pages int) error {
	geo := d.flash.Config()
	if pages > geo.PagesPerBlock {
		return ErrValueTooLarge
	}
	s := &w.slots[si]
	if s.open && s.next+pages > geo.PagesPerBlock {
		s.open = false // seal; any unprogrammed tail pages are wasted
	}
	if s.open {
		return nil
	}
	b, err := d.mgr.Alloc(ftl.ZoneKV)
	if err != nil {
		return ErrDeviceFull
	}
	s.block = b
	s.next = 0
	s.open = true
	return nil
}

// beginPage binds the builder to the next stripe slot's next page.
func (d *Device) beginPage(w *logWriter) error {
	w.cur = (w.cur + 1) % len(w.slots)
	return d.ensureSlot(w, w.cur, 1)
}

// openPagePPA is the address the current open page will program to.
func (w *logWriter) openPagePPA(d *Device) nand.PPA {
	s := &w.slots[w.cur]
	return d.flash.PPAOf(s.block, s.next)
}

// openWriter returns the writer whose open page holds the pair rp
// names, or nil when that pair is on flash. Writer-side: only the
// exclusive lock guards the builders.
func (d *Device) openWriter(rp layout.RP) *logWriter {
	for _, w := range [...]*logWriter{&d.fg, &d.gcw} {
		if !w.builder.Empty() && rp.Page() == uint64(w.openPagePPA(d)) && rp.Slot() < w.builder.Count() {
			return w
		}
	}
	return nil
}

// appendPair packs a single-page pair into writer w's open page and
// returns its record pointer. The builder copies key and value, so they
// may alias a buffer the caller reuses. live is the accounting size:
// positive for live data, negative magnitude for dead-on-arrival bytes
// (tombstones).
func (d *Device) appendPair(w *logWriter, p layout.Pair, live int) (layout.RP, error) {
	if !w.builder.Empty() && !w.builder.Fits(len(p.Key), len(p.Value)) {
		if err := d.flushOpen(w); err != nil {
			return 0, err
		}
	}
	if w.builder.Empty() {
		if err := d.beginPage(w); err != nil {
			return 0, err
		}
	}
	slot, ok := w.builder.Add(p)
	if !ok {
		return 0, fmt.Errorf("device: pair does not fit an empty page (key %d, value %d)",
			len(p.Key), len(p.Value))
	}
	w.liveLen = append(w.liveLen, live)
	return layout.MakeRP(uint64(w.openPagePPA(d)), slot), nil
}

// flushOpen programs writer w's open page and settles its per-pair
// accounting.
func (d *Device) flushOpen(w *logWriter) error {
	if w.builder.Empty() {
		return nil
	}
	s := &w.slots[w.cur]
	// The spare carries the page's base write epoch; per-pair deltas ride
	// in the signature area (layout v2).
	data := w.builder.Bytes()
	ppa := d.flash.PPAOf(s.block, s.next)
	spare := layout.EncodeDataSpare(w.builder.Base())
	if _, err := d.programData(ppa, data, spare); err != nil {
		return err
	}
	for _, n := range w.liveLen {
		if n > 0 {
			d.mgr.OnWrite(s.block, int64(n))
		} else {
			d.mgr.OnWriteDead(s.block, int64(-n))
		}
	}
	w.builder.Reset()
	w.liveLen = w.liveLen[:0]
	s.next++
	if s.next >= d.flash.Config().PagesPerBlock {
		s.open = false
	}
	return nil
}

// appendExtent writes a multi-page pair (head + continuations) into
// consecutive pages of a single erase block and returns the head record
// pointer.
func (d *Device) appendExtent(w *logWriter, p layout.Pair, live int) (layout.RP, error) {
	geo := d.flash.Config()
	pages := layout.ExtentPages(geo.PageSize, len(p.Key), len(p.Value))
	if err := d.flushOpen(w); err != nil {
		return 0, err
	}
	w.cur = (w.cur + 1) % len(w.slots)
	if err := d.ensureSlot(w, w.cur, pages); err != nil {
		return 0, err
	}
	s := &w.slots[w.cur]
	head, conts, err := layout.BuildExtent(geo.PageSize, p)
	if err != nil {
		return 0, err
	}
	headPPA := d.flash.PPAOf(s.block, s.next)
	rp := layout.MakeRP(uint64(headPPA), 0)
	if _, err := d.programData(headPPA, head, layout.EncodeDataSpare(p.Epoch)); err != nil {
		return 0, err
	}
	for i, c := range conts {
		ppa := d.flash.PPAOf(s.block, s.next+1+i)
		spare := layout.EncodeSpare(layout.KindContinuation, rp, i+1)
		if _, err := d.programData(ppa, c, spare); err != nil {
			return 0, err
		}
	}
	s.next += pages
	if s.next >= geo.PagesPerBlock {
		s.open = false
	}
	if live > 0 {
		d.mgr.OnWrite(s.block, int64(live))
	} else {
		d.mgr.OnWriteDead(s.block, int64(-live))
	}
	return rp, nil
}

// invalidateRP marks a stored pair's bytes stale, whether it has reached
// flash or still sits in an open page buffer.
func (d *Device) invalidateRP(rp layout.RP, size int) {
	if w := d.openWriter(rp); w != nil {
		if n := &w.liveLen[rp.Slot()]; *n > 0 {
			*n = -*n
		}
		return
	}
	d.mgr.OnInvalidate(d.flash.BlockOf(nand.PPA(rp.Page())), int64(size))
}

// liveSize is the accounting footprint of a pair: its body plus its
// signature-area entry.
func liveSize(keyLen, valueLen int) int {
	return layout.PairSize(keyLen, valueLen) + layout.SigEntrySize
}

// hostXfer schedules payload movement over the host interface starting
// no earlier than `at`, returning the transfer's completion time.
func (d *Device) hostXfer(at sim.Time, bytes int) sim.Time {
	if bytes <= 0 {
		return at
	}
	dur := sim.Duration(int64(bytes) * 1000 / int64(d.cfg.HostMBps))
	_, done := d.hostLink.Acquire(at, dur)
	return done
}

// arrive charges a command's arrival, its payload of n bytes crossing
// the host link, and its command CPU.
func (d *Device) arrive(submitAt sim.Time, n int) {
	d.env.now.AdvanceTo(d.hostXfer(submitAt, n))
	d.env.ChargeCPU(d.cfg.CmdCPU)
}

// Store executes a put command submitted at submitAt, returning its
// completion time. A store of an existing key verifies the stored key
// (signature re-use, §IV-A3), writes the new pair log-style, updates the
// index, and invalidates the old pair.
func (d *Device) Store(submitAt sim.Time, key, value []byte) (sim.Time, error) {
	if d.closed.Load() {
		return d.env.now.Load(), ErrClosed
	}
	if len(key) == 0 || len(key) > layout.MaxKeyLen ||
		len(key) > layout.HeadCapacity(d.flash.Config().PageSize, 0)/2 {
		return d.env.now.Load(), ErrKeyTooLarge
	}
	if len(value) > d.maxValue {
		return d.env.now.Load(), ErrValueTooLarge
	}
	// The command and its payload cross the host link before the
	// firmware can process it.
	d.arrive(submitAt, len(key)+len(value))
	// A new block for the pair (one extent never spans two) and the index
	// write-backs of a lookup and an insert.
	if err := d.reserve(1 + d.indexBlocks(1+d.splitPages(2))); err != nil {
		return d.env.now.Load(), err
	}
	d.env.reads = 0

	sig := d.scheme.Compute(key)
	oldRP, existed, err := d.idx.Lookup(sig)
	if err != nil {
		return d.env.now.Load(), err
	}
	var oldSize int
	if existed {
		hdr, oldKey, _, _, err := d.readPair(layout.RP(oldRP), false, true)
		if err != nil {
			return d.env.now.Load(), err
		}
		if !bytes.Equal(oldKey, key) {
			// Two distinct keys share a 64-bit signature: the paper's
			// collision-abort path — the application must choose another
			// key.
			d.stats.collisionAborts.Add(1)
			return d.env.now.Load(), index.ErrCollision
		}
		oldSize = liveSize(hdr.KeyLen, hdr.ValueLen)
	}

	d.seq++
	p := layout.Pair{Sig: sig.Lo, Key: key, Value: value, Seq: d.seq, Epoch: d.wepoch.Load() + 1}
	live := liveSize(len(key), len(value))
	var rp layout.RP
	if layout.ExtentPages(d.flash.Config().PageSize, len(key), len(value)) > 1 {
		rp, err = d.appendExtent(&d.fg, p, live)
	} else {
		rp, err = d.appendPair(&d.fg, p, live)
	}
	if err != nil {
		return d.env.now.Load(), err
	}

	if _, _, err := d.idx.Insert(sig, uint64(rp)); err != nil {
		if errors.Is(err, index.ErrCollision) {
			err = d.insertReconfiguring(sig, uint64(rp))
		}
		if err != nil {
			// The freshly written pair is unreachable: mark it dead.
			d.invalidateRP(rp, live)
			if errors.Is(err, index.ErrCollision) {
				d.stats.collisionAborts.Add(1)
			}
			return d.env.now.Load(), err
		}
	}
	if existed {
		d.invalidateRP(layout.RP(oldRP), oldSize)
	}
	if d.vcache != nil {
		// Kill any cached copy (and bump the bucket generation) BEFORE the
		// store acknowledges: a hot-value hit that observes a live entry is
		// thereby ordered before this write's completion.
		d.vcache.Invalidate(sig.Lo, key)
	}

	d.metaPerOp.Record(d.env.reads)
	d.stats.stores.Add(1)
	d.stats.bytesWritten.Add(int64(len(key) + len(value)))
	if err := d.afterMutation(); err != nil {
		return d.env.now.Load(), err
	}
	done := d.env.now.Load().Add(d.cfg.AckOverhead)
	d.latStore.Record(int64(done.Sub(submitAt)))
	return done, nil
}

// Delete executes a delete command: verify the key, remove the index
// record, append a tombstone for recoverability, and invalidate the pair.
func (d *Device) Delete(submitAt sim.Time, key []byte) (sim.Time, error) {
	if d.closed.Load() {
		return d.env.now.Load(), ErrClosed
	}
	d.arrive(submitAt, len(key))
	// A new block for the tombstone and the index write-backs of a lookup
	// and a delete.
	if err := d.reserve(1 + d.indexBlocks(1+d.splitPages(2))); err != nil {
		return d.env.now.Load(), err
	}
	d.env.reads = 0

	sig := d.scheme.Compute(key)
	rp, ok, err := d.idx.Lookup(sig)
	if err != nil {
		return d.env.now.Load(), err
	}
	if !ok {
		return d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, _, _, err := d.readPair(layout.RP(rp), false, true)
	if err != nil {
		return d.env.now.Load(), err
	}
	if !bytes.Equal(storedKey, key) {
		return d.env.now.Load(), ErrNotFound // signature collision: not this key
	}
	if _, _, err := d.idx.Delete(sig); err != nil {
		return d.env.now.Load(), err
	}
	d.seq++
	tomb := layout.Pair{Sig: sig.Lo, Key: key, Seq: d.seq, Epoch: d.wepoch.Load() + 1, Tombstone: true}
	tombSize := liveSize(len(key), 0)
	if _, err := d.appendPair(&d.fg, tomb, -tombSize); err != nil {
		return d.env.now.Load(), err
	}
	d.invalidateRP(layout.RP(rp), liveSize(hdr.KeyLen, hdr.ValueLen))
	if d.vcache != nil {
		d.vcache.Invalidate(sig.Lo, key)
	}

	d.metaPerOp.Record(d.env.reads)
	d.stats.deletes.Add(1)
	if err := d.afterMutation(); err != nil {
		return d.env.now.Load(), err
	}
	return d.env.now.Load().Add(d.cfg.AckOverhead), nil
}

// insertReconfiguring retries an index insert that aborted with a
// record-layer displacement failure. True same-signature duplicates are
// caught before this point by the lookup-and-compare path, so a
// collision abort here means the key's bucket ran out of hopscotch
// neighborhood.
//
// The rescue applies ONLY in iterator mode, where prefix-sharing keys
// land on the same bucket in whole-group clumps and a single bucket
// overflows well below the global occupancy trigger; re-configuring
// (doubling the directory) re-spreads the groups. With plain signatures
// bucket loads are smooth, a displacement failure is the paper's
// saturation behaviour near the occupancy threshold, and the abort
// rate is itself the measurement (Fig. 8) — those keep the collision
// abort semantics.
//
// The sparsity guard is what keeps a truly pathological key set — a
// single prefix group larger than one record table — from running away.
// Bucket selection uses only prefix-hash bits, so no split ever
// separates keys of one group; without the guard every failed insert
// would buy another round of futile doublings and the directory would
// grow without bound. Once occupancy falls below 1/minSplitFill the
// index has already been doubled several times past its load, so the
// overflow must be such a group: report it uncorrectable instead.
func (d *Device) insertReconfiguring(sig index.Sig, rp uint64) error {
	rz, ok := d.idx.(index.Resizer)
	if !ok || d.cfg.DisableAutoResize || d.scheme.PrefixLen == 0 {
		return index.ErrCollision
	}
	const (
		maxSplits    = 4
		minSplitFill = 32
	)
	for i := 0; i < maxSplits; i++ {
		if cp, ok := d.idx.(interface{ Capacity() int64 }); ok &&
			d.idx.Len()*minSplitFill < cp.Capacity() {
			break
		}
		if err := d.resize(rz); err != nil {
			return err
		}
		// The retry may split buckets of the migration just started.
		if err := d.reserve(d.indexBlocks(d.splitPages(1))); err != nil {
			return err
		}
		_, _, err := d.idx.Insert(sig, rp)
		if err == nil {
			return nil
		}
		if !errors.Is(err, index.ErrCollision) {
			return err
		}
	}
	return index.ErrCollision
}

// resize doubles the index with the submission queue halted. The halt
// swaps the directory; with HaltResize it also runs the whole
// migration, otherwise the bucket splits ride on later commands.
func (d *Device) resize(rz index.Resizer) error {
	if err := d.reserve(d.indexBlocks(d.splitPages(haltSplits))); err != nil {
		return err
	}
	haltStart := d.env.now.Load()
	if err := rz.Resize(); err != nil {
		return err
	}
	d.stats.resizeHalt.Add(int64(d.env.now.Load().Sub(haltStart)))
	return nil
}

// afterMutation runs post-command maintenance: RHIK re-configuration
// (with the submission queue halted — the firmware timeline simply
// advances through the migration), epoch-reclamation collection, and
// periodic checkpoints.
func (d *Device) afterMutation() error {
	d.mutsSince++
	d.collectRetired()
	if rz, ok := d.idx.(index.Resizer); ok && !d.cfg.DisableAutoResize && rz.NeedsResize() {
		if err := d.resize(rz); err != nil {
			return err
		}
	}
	if d.cfg.CheckpointEveryOps > 0 && d.mutsSince >= d.cfg.CheckpointEveryOps {
		return d.Checkpoint()
	}
	return nil
}

// FlushData programs any open page buffers without checkpointing.
func (d *Device) FlushData() error {
	if err := d.flushOpen(&d.fg); err != nil {
		return err
	}
	return d.flushOpen(&d.gcw)
}
