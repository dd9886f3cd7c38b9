package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/sim"
)

// NeedsResize implements index.Resizer: true once total occupancy reaches
// the configured threshold (80 % by default, §IV-A2). While a migration
// is in flight the index is already growing, so another resize never
// starts.
func (r *RHIK) NeedsResize() bool {
	if r.mig != nil {
		return false
	}
	return float64(r.n) >= r.cfg.OccupancyThreshold*float64(r.Capacity())
}

// ResizeEvents implements index.Resizer.
func (r *RHIK) ResizeEvents() []index.ResizeEvent { return r.resizes }

// Resize doubles the index (§IV-A2): the directory gains one bit, the
// record layer gains a second table per old bucket, and every record
// migrates using only its stored key signature — the KV pairs on flash
// are never read. The doubled directory is published at once and its
// buckets migrate as operations touch them; with HaltResize the
// migration drains here, inside the device's submission-queue halt, and
// its duration is the paper's "resizing time" (Fig. 7).
func (r *RHIK) Resize() error {
	r.enter()
	defer r.exit()
	if err := r.startIncrementalResize(); err != nil {
		return err
	}
	if r.cfg.HaltResize {
		if err := r.drainMigration(); err != nil {
			return err
		}
	}
	return r.checkIO()
}

// splitBucket moves old bucket b's records into generation g, whose
// directory is twice old's: bit log2(D) of each record's stored
// signature sends it to bucket b or b+D of g. The source table is taken
// out of old's cache — unpublished and poisoned first, so an optimistic
// reader still probing old fails validation instead of seeing a
// half-moved bucket — or read from its page, at most one flash read like
// any bucket access. A half that ends up empty needs no flash presence
// and is neither cached nor persisted. Old's page for b is superseded.
func (r *RHIK) splitBucket(old, g *generation, b uint64) error {
	oldD := uint64(len(old.dirs))
	var src *tableEntry
	if e, ok := old.cache.Remove(b); ok {
		old.resident[b].Store(nil)
		e.table.Invalidate()
		src = e
	} else if ppa, has := old.dirs[b].page(); has {
		data, err := r.env.ReadPage(ppa)
		if err != nil {
			return fmt.Errorf("core: migration read bucket %d: %w", b, err)
		}
		t := r.takeTable()
		if err := t.DecodeFrom(data); err != nil {
			r.recycle(t)
			return fmt.Errorf("core: migration decode bucket %d: %w", b, err)
		}
		src = r.takeEntry(t)
	}

	low, high := r.takeEntry(r.takeEmptyTable()), r.takeEntry(r.takeEmptyTable())
	if src != nil {
		var err error
		r.env.ChargeCPU(sim.Duration(src.table.Len()) * r.cfg.MigrateCPUPerRecord)
		src.table.RangeWide(func(lo, hi, rp uint64) bool {
			dst := low
			if lo&oldD != 0 {
				dst = high
			}
			if _, err = dst.table.PutWide(lo, hi, rp); err != nil {
				err = fmt.Errorf("core: migration collision in bucket %d: %w", b, err)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		r.retireEntry(src)
	}
	for i, e := range [2]*tableEntry{low, high} {
		if e.table.Len() == 0 {
			r.recycleEntry(e)
			continue
		}
		e.dirty = true
		r.put(g, b+uint64(i)*oldD, e)
	}
	if ppa, has := old.dirs[b].page(); has {
		r.env.Invalidate(ppa)
		delete(r.live, ppa)
		old.dirs[b].clear()
	}
	return nil
}
