package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/nand"
)

// stateMagic versions the serialized directory format.
const stateMagic = "RHIKDR1\x00"

// EncodeState implements index.Checkpointer: it serializes the
// DRAM-resident directory layer — the paper's "periodically updated
// persistent copy of the D entries". Call Flush first so every directory
// entry points at current flash pages.
func (r *RHIK) EncodeState() []byte {
	dirs := r.g().dirs
	buf := make([]byte, 0, len(stateMagic)+1+8+8+len(dirs)*9)
	buf = append(buf, stateMagic...)
	buf = append(buf, byte(r.dBits))
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], uint64(r.n))
	buf = append(buf, n8[:]...)
	binary.LittleEndian.PutUint64(n8[:], uint64(r.collisions))
	buf = append(buf, n8[:]...)
	for _, d := range dirs {
		has := byte(0)
		if d.has {
			has = 1
		}
		buf = append(buf, has)
		binary.LittleEndian.PutUint64(n8[:], uint64(d.ppa))
		buf = append(buf, n8[:]...)
	}
	return buf
}

// LoadState implements index.Checkpointer, restoring a directory
// serialized by EncodeState. The record-table cache starts cold.
func (r *RHIK) LoadState(data []byte) error {
	if len(data) < len(stateMagic)+17 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("core: bad checkpoint header")
	}
	p := len(stateMagic)
	dBits := int(data[p])
	p++
	n := int64(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	collisions := int64(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	d := 1 << dBits
	if len(data) < p+9*d {
		return fmt.Errorf("core: truncated checkpoint: %d entries expected", d)
	}
	g := newGeneration(d)
	live := make(map[nand.PPA]uint64, d)
	for i := range g.dirs {
		has := data[p] == 1
		p++
		ppa := nand.PPA(binary.LittleEndian.Uint64(data[p:]))
		p += 8
		g.dirs[i] = dirEntry{ppa: ppa, has: has}
		if has {
			live[ppa] = uint64(i)
		}
	}
	g.cache = r.newCache(g)
	r.dBits = dBits
	r.live = live
	r.n = n
	r.collisions = collisions
	// The previous generation's cached entries are dropped wholesale (no
	// eviction callbacks, no pool recycling), so a reader racing a device
	// restart — already fenced out by the device's structure-mutation
	// sequence — can never see their tables reused.
	r.gen.Store(g)
	r.cache = g.cache
	return nil
}

// PersistentPages implements index.Checkpointer: the flash pages the
// encoded directory references.
func (r *RHIK) PersistentPages() []nand.PPA {
	dirs := r.g().dirs
	pages := make([]nand.PPA, 0, len(dirs))
	for _, d := range dirs {
		if d.has {
			pages = append(pages, d.ppa)
		}
	}
	return pages
}

// Owner implements index.Relocator: page p is live while some directory
// entry points at it.
func (r *RHIK) Owner(p nand.PPA) (uint64, bool) {
	bucket, ok := r.live[p]
	return bucket, ok
}

// RangeRecords implements index.RecordEnumerator: every live record
// with its full signature, bucket by bucket. Any in-flight incremental
// re-configuration is drained first so each record appears exactly once
// under the current directory generation. Buckets that are neither
// cached nor backed by a flash page hold no records and are skipped;
// the rest load through the cache, charging enumeration's flash reads
// to the simulated timeline like any other index access.
func (r *RHIK) RangeRecords(f func(lo, hi, rp uint64) bool) error {
	if r.mig != nil {
		if err := r.drainMigration(); err != nil {
			return err
		}
	}
	g := r.g()
	stop := false
	for bucket := range g.dirs {
		if _, cached := r.cache.Get(uint64(bucket)); !cached && !g.dirs[bucket].has {
			continue
		}
		e, err := r.loadTable(uint64(bucket))
		if err != nil {
			return err
		}
		e.table.RangeWide(func(lo, hi, rp uint64) bool {
			if !f(lo, hi, rp) {
				stop = true
			}
			return !stop
		})
		if stop {
			break
		}
	}
	return r.checkIO()
}

// PrefixRecords implements index.PrefixScanner: with iterator-mode
// signatures every key sharing a prefix maps to directory bucket
// (low mod D), so the scan touches one record table — at most one flash
// read, the same guarantee as a point lookup — and returns only the
// records whose stored signature carries low, not the bucket's other
// prefix groups (§VI).
func (r *RHIK) PrefixRecords(low uint32) ([]uint64, error) {
	bucket := uint64(low) & uint64(len(r.g().dirs)-1)
	if r.mig != nil {
		if oldB := bucket & uint64(r.mig.oldD-1); !r.mig.migrated[oldB] {
			if err := r.migrateBucket(oldB); err != nil {
				return nil, err
			}
		}
	}
	e, err := r.loadTable(bucket)
	if err != nil {
		return nil, err
	}
	r.scan = e.table.AppendLow32(r.scan[:0], low)
	return slices.Clone(r.scan), r.checkIO()
}

// Relocate implements index.Relocator: the bucket's record table is
// loaded (DRAM or one flash read) and rewritten to a fresh page, freeing
// the victim block's copy. A page still owned by the previous directory
// generation is relocated by simply migrating its bucket, which
// invalidates the old copy.
func (r *RHIK) Relocate(bucket uint64) error {
	if r.mig != nil && bucket < uint64(r.mig.oldD) && !r.mig.migrated[bucket] {
		return r.migrateBucket(bucket)
	}
	e, err := r.loadTable(bucket)
	if err != nil {
		return err
	}
	if err := r.writeTable(r.g().dirs, bucket, e); err != nil {
		return err
	}
	return r.checkIO()
}
