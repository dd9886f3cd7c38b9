package device

import (
	"encoding/binary"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
)

// ckptHeaderSize prefixes the first checkpoint chunk: magic (4) +
// checkpoint id (8) + covered sequence (8) + blob length (4).
const ckptHeaderSize = 4 + 8 + 8 + 4

var ckptMagic = [4]byte{'R', 'C', 'K', '1'}

// Checkpoint makes the device state durable: open page buffers are
// programmed, the index flushes its dirty pages, and — for indexes that
// support it (RHIK) — the DRAM-resident directory is serialized into
// checkpoint pages in the index zone, the paper's "periodically updated
// persistent copy" of the directory layer. Data written after the last
// checkpoint remains recoverable through the log scan (see recovery.go).
func (d *Device) Checkpoint() error {
	// The index's write-backs, then the checkpoint blob: the directory at
	// nine bytes an entry plus headers.
	pages, dirs := d.flushPages()
	pages += 1 + (ckptHeaderSize+9*dirs)/d.flash.Config().PageSize
	if err := d.reserve(d.indexBlocks(pages)); err != nil {
		return err
	}
	d.collectRetired()
	if err := d.FlushData(); err != nil {
		return err
	}
	if err := d.idx.Flush(); err != nil {
		return err
	}
	ck, ok := d.idx.(index.Checkpointer)
	if !ok {
		d.mutsSince = 0
		d.stats.checkpoints.Add(1)
		return nil
	}

	state := ck.EncodeState()
	blob := make([]byte, ckptHeaderSize+len(state))
	copy(blob[:4], ckptMagic[:])
	binary.LittleEndian.PutUint64(blob[4:12], d.ckptID+1)
	binary.LittleEndian.PutUint64(blob[12:20], d.seq)
	binary.LittleEndian.PutUint32(blob[20:24], uint32(len(state)))
	copy(blob[ckptHeaderSize:], state)

	pageSize := d.flash.Config().PageSize
	var newPages []nand.PPA
	for off, seg := 0, 0; off < len(blob); seg++ {
		end := off + pageSize
		if end > len(blob) {
			end = len(blob)
		}
		ppa, err := d.writeCheckpointPage(blob[off:end], d.ckptID+1, seg)
		if err != nil {
			return err
		}
		newPages = append(newPages, ppa)
		off = end
	}

	// The previous checkpoint generation is now stale.
	for _, p := range d.ckptPages {
		d.env.Invalidate(p)
	}
	d.ckptPages = newPages
	d.ckptID++
	d.ckptSeq = d.seq
	d.mutsSince = 0
	d.stats.checkpoints.Add(1)

	// Re-pin the pages the new checkpoint references, then release the
	// invalidations deferred while the previous generation needed them.
	newPinned := make(map[nand.PPA]bool)
	for _, p := range ck.PersistentPages() {
		newPinned[p] = true
	}
	deferred := d.deferredInval
	d.deferredInval = nil
	d.ckptPinned = newPinned
	for _, p := range deferred {
		d.env.Invalidate(p)
	}
	return nil
}

// writeCheckpointPage programs one checkpoint chunk into the index zone.
// The chunk's generation travels in the spare owner field and its
// ordinal in the spare segment field, so recovery can reassemble the
// blob without any root pointer.
func (d *Device) writeCheckpointPage(chunk []byte, gen uint64, seg int) (nand.PPA, error) {
	ppa, err := d.nextIndexPage()
	if err != nil {
		return 0, err
	}
	spare := layout.EncodeSpare(layout.KindCheckpoint, layout.RP(gen), seg)
	done, err := d.flash.Program(d.env.now.Load(), ppa, chunk, spare)
	if err != nil {
		return 0, err
	}
	d.env.now.AdvanceTo(done)
	d.mgr.OnWrite(d.flash.BlockOf(ppa), int64(len(chunk)))
	d.idxPageSize[ppa] = int32(len(chunk))
	return ppa, nil
}

// relocateCheckpointPage moves a live checkpoint chunk during index-zone
// GC; stale generations are simply dropped.
func (d *Device) relocateCheckpointPage(old nand.PPA) error {
	live := -1
	for i, p := range d.ckptPages {
		if p == old {
			live = i
			break
		}
	}
	if live < 0 {
		return nil // stale generation; nothing to move
	}
	data, spare, done, err := d.flash.Read(d.env.now.Load(), old)
	if err != nil {
		return err
	}
	d.env.now.AdvanceTo(done)
	_, gen, seg, err := layout.DecodeSpare(spare)
	if err != nil {
		return err
	}
	ppa, err := d.writeCheckpointPage(data, uint64(gen), seg)
	if err != nil {
		return err
	}
	d.ckptPages[live] = ppa
	d.env.Invalidate(old)
	d.stats.gcPagesMoved.Add(1)
	return nil
}

// ckptChunk is one checkpoint page found during the recovery scan.
type ckptChunk struct {
	gen  uint64
	seg  int
	data []byte
	ppa  nand.PPA
}

// assembleCheckpoint picks the newest complete checkpoint generation
// from the scanned chunks and returns its state blob, covered sequence,
// generation and page set.
func assembleCheckpoint(chunks []ckptChunk) (state []byte, seq, gen uint64, pages []nand.PPA, ok bool) {
	byGen := make(map[uint64][]ckptChunk)
	for _, c := range chunks {
		byGen[c.gen] = append(byGen[c.gen], c)
	}
	var gens []uint64
	for g := range byGen {
		gens = append(gens, g)
	}
	// Try newest generation first.
	for len(gens) > 0 {
		newest := 0
		for i, g := range gens {
			if g > gens[newest] {
				newest = i
			}
		}
		g := gens[newest]
		gens = append(gens[:newest], gens[newest+1:]...)

		parts := byGen[g]
		ordered := make([][]byte, len(parts))
		pset := make([]nand.PPA, len(parts))
		valid := true
		for _, c := range parts {
			if c.seg >= len(parts) || ordered[c.seg] != nil {
				valid = false
				break
			}
			ordered[c.seg] = c.data
			pset[c.seg] = c.ppa
		}
		if !valid {
			continue
		}
		var blob []byte
		for _, p := range ordered {
			if p == nil {
				valid = false
				break
			}
			blob = append(blob, p...)
		}
		if !valid || len(blob) < ckptHeaderSize {
			continue
		}
		if [4]byte(blob[:4]) != ckptMagic {
			continue
		}
		id := binary.LittleEndian.Uint64(blob[4:12])
		seq := binary.LittleEndian.Uint64(blob[12:20])
		n := int(binary.LittleEndian.Uint32(blob[20:24]))
		if id != g || len(blob) < ckptHeaderSize+n {
			continue
		}
		return blob[ckptHeaderSize : ckptHeaderSize+n], seq, g, pset, true
	}
	return nil, 0, 0, nil, false
}
