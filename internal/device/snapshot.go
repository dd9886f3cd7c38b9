package device

import (
	"bytes"
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Snapshot errors.
var (
	// ErrNoSnapshot: the configured index cannot enumerate its records
	// (only RHIK implements index.RecordEnumerator today).
	ErrNoSnapshot = errors.New("device: index does not support snapshots")
	// ErrSnapshotInvalid: a power cycle (Restart) occurred after the
	// snapshot was opened; its frozen view may reference reclaimed flash.
	ErrSnapshotInvalid = errors.New("device: snapshot invalidated by restart")
	// ErrSnapshotReleased: the snapshot was already released.
	ErrSnapshotReleased = errors.New("device: snapshot released")
	// ErrSnapshotBusy: the epoch-pin table is full; the snapshot cannot
	// be protected against reclamation right now.
	ErrSnapshotBusy = errors.New("device: too many pinned readers, retry")
)

// SnapRecord is one frozen (signature, record pointer) binding in a
// snapshot's view, sorted by (Lo, Hi).
type SnapRecord struct {
	Lo, Hi uint64
	RP     uint64
}

// Snapshot is a consistent point-in-time read view of the device (MVCC).
// It is captured under the device's exclusive serialization but READ
// with no lock at all: the frozen view is immutable, the flash blocks
// it references are excluded from GC victim selection while the
// snapshot is registered, and a single lifetime epoch pin keeps every
// buffer retired after capture from being reused underneath a reader.
//
// Point reads first probe the LIVE index optimistically: a validated
// hit whose record epoch is <= the snapshot epoch is by construction
// the newest version at the snapshot instant (epochs only grow), so it
// can be served without touching the frozen view. Every other outcome —
// miss, newer epoch, raced validation, non-resident state — falls back
// to a binary search of the frozen view, which is always correct.
type Snapshot struct {
	d     *Device
	epoch uint64 // write-epoch visibility bound E
	pin   epoch.Pin
	view  []SnapRecord // sorted by (Lo, Hi); immutable after capture
	// blocks is the erase-block footprint of the view; GC reads it (under
	// snapMu) to exclude these from victim selection.
	blocks map[nand.BlockID]struct{}

	invalid  atomic.Bool // set by Restart: frozen view dangles
	released atomic.Bool
	reads    atomic.Int64 // point reads served (either path)
	fastHits atomic.Int64 // point reads served by the live-index fast path
}

// OpenSnapshot captures a consistent view of the device. It must run
// under the same exclusive serialization as mutating commands (the
// shard front-end holds the write lock): it flushes open page buffers
// so every record is on programmed flash, enumerates the index, and
// pins the result against GC and buffer reuse. The returned snapshot
// is then read lock-free, concurrently with subsequent writers.
func (d *Device) OpenSnapshot() (*Snapshot, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	en, ok := d.idx.(index.RecordEnumerator)
	if !ok {
		return nil, ErrNoSnapshot
	}
	pages, _ := d.flushPages()
	if err := d.reserveRead(pages); err != nil {
		return nil, err
	}
	// Every frozen record pointer must reference programmed flash — a
	// volatile open-page buffer would not survive the capture.
	if err := d.FlushData(); err != nil {
		return nil, err
	}
	pin, pinned := d.reclaim.TryPin()
	if !pinned {
		return nil, ErrSnapshotBusy
	}
	s := &Snapshot{d: d, pin: pin, blocks: make(map[nand.BlockID]struct{})}
	err := en.RangeRecords(func(lo, hi, rp uint64) bool {
		s.view = append(s.view, SnapRecord{Lo: lo, Hi: hi, RP: rp})
		s.blocks[d.flash.BlockOf(nand.PPA(layout.RP(rp).Page()))] = struct{}{}
		return true
	})
	if err != nil {
		d.reclaim.Unpin(pin)
		return nil, err
	}
	sort.Slice(s.view, func(i, j int) bool {
		if s.view[i].Lo != s.view[j].Lo {
			return s.view[i].Lo < s.view[j].Lo
		}
		return s.view[i].Hi < s.view[j].Hi
	})
	// E is read while the exclusive lock still fences out writers, so the
	// enumerated records are exactly those with epoch <= E.
	s.epoch = d.wepoch.Load()
	d.snapMu.Lock()
	d.snaps[s] = struct{}{}
	d.snapMu.Unlock()
	return s, nil
}

// invalidateSnapshots marks every open snapshot dead and drops their
// pins and GC protection. Called by Restart under the exclusive lock: a
// power cycle's rebuild may reclaim the flash their views reference.
func (d *Device) invalidateSnapshots() {
	d.snapMu.Lock()
	for s := range d.snaps {
		s.invalid.Store(true)
		if s.released.CompareAndSwap(false, true) {
			d.reclaim.Unpin(s.pin)
		}
	}
	d.snaps = make(map[*Snapshot]struct{})
	d.snapMu.Unlock()
}

// Release drops the snapshot's GC protection and epoch pin. Idempotent;
// safe from any goroutine. The snapshot must not be read afterwards.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	d := s.d
	d.snapMu.Lock()
	delete(d.snaps, s)
	d.snapMu.Unlock()
	d.reclaim.Unpin(s.pin)
}

// Epoch reports the snapshot's visibility bound.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Records reports the number of frozen records in the view.
func (s *Snapshot) Records() int { return len(s.view) }

// Reads reports point reads served through this snapshot.
func (s *Snapshot) Reads() int64 { return s.reads.Load() }

// FastHits reports how many of those were served by the live-index
// optimistic fast path rather than the frozen view.
func (s *Snapshot) FastHits() int64 { return s.fastHits.Load() }

// Valid reports whether the snapshot is still readable (not released,
// not invalidated by a restart).
func (s *Snapshot) Valid() bool { return !s.released.Load() && !s.invalid.Load() }

// Get reads key's value as of the snapshot instant, with no lock. The
// value is appended to dst. Returns ErrNotFound when the key had no
// live value at the snapshot epoch.
func (s *Snapshot) Get(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	d := s.d
	// Invalid before released: a restart both invalidates and force-
	// releases (to drop the epoch pin), and the restart is the cause a
	// caller can act on.
	if s.invalid.Load() {
		return dst, d.env.now.Load(), ErrSnapshotInvalid
	}
	if s.released.Load() {
		return dst, d.env.now.Load(), ErrSnapshotReleased
	}
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	sig := d.scheme.Compute(key)
	if v, done, ok := s.tryFastGet(sig, submitAt, key, dst); ok {
		s.fastHits.Add(1)
		s.reads.Add(1)
		return v, done, nil
	}
	return s.frozenGet(sig, submitAt, key, dst)
}

// tryFastGet probes the LIVE index optimistically. It can only serve a
// validated hit whose record epoch is <= the snapshot bound: epochs are
// monotone, so that record is simultaneously the newest overall and
// unchanged since the capture — i.e. the correct version at E. Every
// other outcome (miss, newer record, raced validation, non-resident
// bucket, volatile page) reports false; the frozen view then
// answers correctly. A failed fast path is therefore a performance
// matter only, never a correctness one.
func (s *Snapshot) tryFastGet(sig index.Sig, submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, bool) {
	d := s.d
	// The sequence before the index, for optBegin's reason (the literal
	// evaluates left to right).
	rd := read{m1: d.mutSeq.Load(), r: d.optIdx.Load()}
	if rd.r == nil || rd.m1&1 != 0 || d.probe(&rd, sig) != nil || !rd.probe.Found {
		return dst, 0, false
	}
	d.arrive(submitAt, len(key))
	d.env.ChargeCPU(rd.r.OptimisticLookupCost())
	var recEpoch uint64
	hdr, storedKey, value, done, err := d.readFlashPair(d.env.now.Load(), layout.RP(rd.probe.RP), true, &recEpoch)
	// A record newer than the snapshot, or a signature collision: the
	// frozen view holds the authoritative answer. The epoch comparison is
	// only meaningful if the probed binding survived every dependent flash
	// access intact, which settle checks: the linearization point.
	if err != nil || recEpoch > s.epoch || hdr.Tombstone() || !bytes.Equal(storedKey, key) || !d.settle(&rd) {
		return dst, 0, false
	}
	done = d.hostXfer(max(done, d.env.now.Load()), len(value)).Add(d.cfg.AckOverhead)
	return append(dst, value...), done, true
}

// frozenGet serves a point read from the immutable captured view: a
// binary search over the sorted (Lo, Hi) records, then one lock-free
// pair read from pinned flash. No epoch check is needed — the view IS
// the state at E. The trailing invalid check makes the read safe
// against a concurrent Restart: if it still reads false, the pins were
// still held throughout, so every byte read was stable.
func (s *Snapshot) frozenGet(sig index.Sig, submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	d := s.d
	d.arrive(submitAt, len(key))
	i := sort.Search(len(s.view), func(i int) bool {
		if s.view[i].Lo != sig.Lo {
			return s.view[i].Lo > sig.Lo
		}
		return s.view[i].Hi >= sig.Hi
	})
	if i >= len(s.view) || s.view[i].Lo != sig.Lo || s.view[i].Hi != sig.Hi {
		if s.invalid.Load() {
			return dst, d.env.now.Load(), ErrSnapshotInvalid
		}
		s.reads.Add(1)
		return dst, d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, value, done, err := d.readFlashPair(d.env.now.Load(), layout.RP(s.view[i].RP), true, nil)
	if s.invalid.Load() {
		return dst, d.env.now.Load(), ErrSnapshotInvalid
	}
	if err != nil {
		return dst, d.env.now.Load(), err
	}
	if now := d.env.now.Load(); done < now {
		done = now
	}
	s.reads.Add(1)
	if hdr.Tombstone() || !bytes.Equal(storedKey, key) {
		return dst, done, ErrNotFound
	}
	done = d.hostXfer(done, len(value)).Add(d.cfg.AckOverhead)
	return append(dst, value...), done, nil
}

// Scan enumerates the snapshot's records whose keys share prefix (nil
// matches everything), sorted by key, with no lock. Unlike the live
// Iterate it requires no iterator-mode signature scheme and accepts any
// prefix length — the frozen view already holds every record — and it
// never blocks writers. When the scheme is iterator-mode and the prefix
// names a signature group (len(prefix) >= PrefixLen), only that group's
// view records are read; either way the reads go through the same
// page-ordered sweep as Iterate. The result is a deep copy: valid after
// Release.
func (s *Snapshot) Scan(submitAt sim.Time, prefix []byte, withValues bool) ([]IterEntry, sim.Time, error) {
	d := s.d
	// Invalid before released; see Get.
	if s.invalid.Load() {
		return nil, d.env.now.Load(), ErrSnapshotInvalid
	}
	if s.released.Load() {
		return nil, d.env.now.Load(), ErrSnapshotReleased
	}
	if d.closed.Load() {
		return nil, d.env.now.Load(), ErrClosed
	}
	d.arrive(submitAt, 0)
	var rps []uint64
	if p := d.scheme.PrefixLen; p > 0 && len(prefix) >= p {
		low := d.scheme.PrefixLow(prefix)
		for _, rec := range s.view {
			if uint32(rec.Lo) == low {
				rps = append(rps, rec.RP)
			}
		}
	} else {
		rps = make([]uint64, len(s.view))
		for i, rec := range s.view {
			rps[i] = rec.RP
		}
	}
	out, done, err := d.sweep(d.env.now.Load(), rps, false, prefix, withValues)
	// Checked after the sweep's copy-out: if it still reads false, the
	// pins were held throughout and every byte read was stable (see
	// frozenGet).
	if s.invalid.Load() {
		return nil, d.env.now.Load(), ErrSnapshotInvalid
	}
	if err != nil {
		return nil, d.env.now.Load(), err
	}
	d.env.now.AdvanceTo(done)
	return out, d.env.now.Load(), nil
}
