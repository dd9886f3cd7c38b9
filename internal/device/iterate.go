package device

import (
	"bytes"
	"slices"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// IterEntry is one key (and optionally its value) produced by Iterate.
// The entries of one result share a single backing allocation.
type IterEntry struct {
	Key   []byte
	Value []byte
}

// Iterate enumerates keys sharing the given prefix (§VI "Integrated
// Iterator Support"). It requires an iterator-mode signature scheme
// (SigScheme.PrefixLen > 0), an index implementing index.PrefixScanner
// and a prefix of at least PrefixLen bytes: a shorter one names no
// signature group, so it is ErrPrefixTooShort rather than a partial
// answer. The index returns the records whose signature carries the
// prefix hash — under RHIK one record table, at most one flash read; LSM
// runs and the multi-level cascade sweep every index page, the asymmetry
// the cross-engine shootout measures — and sweep reads each data page
// those records sit on once. A scan therefore costs what it returns: at
// most one index read plus the group's distinct data pages. A longer
// prefix selects the group by its first PrefixLen bytes; the stored-key
// comparison narrows it, and drops keys of any other prefix whose hash
// collides.
func (d *Device) Iterate(submitAt sim.Time, prefix []byte, withValues bool) ([]IterEntry, sim.Time, error) {
	if d.closed.Load() {
		return nil, d.env.now.Load(), ErrClosed
	}
	if d.scheme.PrefixLen == 0 {
		return nil, d.env.now.Load(), ErrNoIterator
	}
	sc, ok := d.idx.(index.PrefixScanner)
	if !ok {
		return nil, d.env.now.Load(), ErrNoIterator
	}
	if len(prefix) < d.scheme.PrefixLen {
		return nil, d.env.now.Load(), ErrPrefixTooShort
	}
	d.arrive(submitAt, 0)
	// RHIK reads one bucket, but the baselines sweep their whole index.
	pages, _ := d.flushPages()
	if err := d.reserveRead(pages); err != nil {
		return nil, d.env.now.Load(), err
	}

	rps, err := sc.PrefixRecords(d.scheme.PrefixLow(prefix))
	if err != nil {
		return nil, d.env.now.Load(), err
	}
	out, done, err := d.sweep(d.env.now.Load(), rps, true, prefix, withValues)
	d.env.now.AdvanceTo(done)
	if err != nil {
		return nil, d.env.now.Load(), err
	}
	d.stats.iterates.Add(1)
	return out, d.env.now.Load(), nil
}

// sweep reads the pairs rps address and returns the live ones whose key
// carries prefix, sorted by key. It sorts rps in place into flash order,
// so each distinct data page is read — and charged to the timeline, from
// at on — once however many of the records share it; every further
// record on the current page counts in PrefetchHits. A multi-page value's
// continuations are read behind its head page, which it shares with no
// other pair. A live scan is locked, and reads a pair still in an open
// page from its builder; a snapshot's is not, so it must never look at
// the builders, and its records are all on programmed flash. Entries
// alias the page buffers until the sweep ends; keys and values are then
// copied once into one exactly-sized slab, so the result is the caller's.
func (d *Device) sweep(at sim.Time, rps []uint64, locked bool, prefix []byte, withValues bool) ([]IterEntry, sim.Time, error) {
	if len(rps) == 0 {
		return nil, at, nil
	}
	slices.Sort(rps)
	out := make([]IterEntry, 0, len(rps))
	var (
		page []byte         // data of page cur
		cur  = ^nand.PPA(0) // no page read yet: no record pointer has this page
		hits int64
		size int
	)
	for _, rp0 := range rps {
		rp := layout.RP(rp0)
		ppa := nand.PPA(rp.Page())
		var w *logWriter
		if locked {
			w = d.openWriter(rp)
		}
		var hdr layout.PairHeader
		var key, value []byte
		var err error
		if w != nil {
			hdr, key, value, err = w.builder.PairAt(rp.Slot())
		} else {
			if ppa == cur {
				hits++
			} else {
				if page, _, at, err = d.flash.Read(at, ppa); err != nil {
					return nil, at, err
				}
				cur = ppa
			}
			var info layout.SigInfo
			if info, _, err = layout.SigInfoAt(page, rp.Slot()); err == nil {
				hdr, key, value, err = layout.DecodePairAt(page, int(info.Offset))
			}
		}
		if err != nil {
			return nil, at, err
		}
		if hdr.Tombstone() || !bytes.HasPrefix(key, prefix) {
			continue
		}
		if !withValues {
			value = nil
		} else if hdr.ValueLen > len(value) {
			if value, at, err = d.readExtent(at, ppa, value, hdr.ValueLen); err != nil {
				return nil, at, err
			}
		}
		out = append(out, IterEntry{Key: key, Value: value})
		size += len(key) + len(value)
	}
	d.stats.prefetchHits.Add(hits)

	slab := make([]byte, 0, size)
	own := func(b []byte) []byte {
		if len(b) == 0 {
			return nil // an empty value, or none asked for
		}
		n := len(slab)
		slab = append(slab, b...)
		return slab[n:len(slab):len(slab)]
	}
	for i := range out {
		out[i].Key, out[i].Value = own(out[i].Key), own(out[i].Value)
	}
	slices.SortFunc(out, func(a, b IterEntry) int { return bytes.Compare(a.Key, b.Key) })
	return out, at, nil
}
