package device

import (
	"bytes"
	"errors"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// This file is the read path: one GET body (get) and one EXIST body
// (exist), each run by both read tiers. A locked read runs under the
// caller's exclusive lock (RetrieveAppend, Exist); a lock-free read runs
// with none (TryRetrieveOptimistic, TryExistOptimistic; see
// optimistic.go). The mode decides where the index answer comes from,
// whether a pair still in an open page can be read, and what the answer
// must pass first. Every charge, sample and counter is made by the same
// lines in both modes, so a single-threaded run has the same timeline
// whichever tier serves it.

// read is one GET or EXIST command in flight.
type read struct {
	r     *core.RHIK    // the index a lock-free read probes; nil: locked
	m1    uint64        // lock-free: mutSeq when the read began
	probe core.OptProbe // lock-free: the probe the read answers from
	meta  int64         // index pages the lookup read: the metadata-read sample
}

// readPair fetches the pair addressed by rp. A locked read takes a pair
// still in an open page from that page's builder, which only the
// exclusive lock guards; a lock-free read never meets one, because its
// probe refuses a pair whose page is not readable. withValue is a GET's
// read: the whole value, and only the completion time reflects the read
// while the firmware moves on (the data-out phase). Without it the
// firmware waits for the key, which gates the command. Key and value
// alias the page they were read from.
func (d *Device) readPair(rp layout.RP, withValue, locked bool) (hdr layout.PairHeader, key, value []byte, done sim.Time, err error) {
	if locked {
		if w := d.openWriter(rp); w != nil {
			hdr, key, value, err = w.builder.PairAt(rp.Slot())
			return hdr, key, value, d.env.now.Load(), err
		}
	}
	hdr, key, value, done, err = d.readFlashPair(d.env.now.Load(), rp, withValue, nil)
	if err == nil && !withValue {
		d.env.now.AdvanceTo(done)
	}
	return hdr, key, value, done, err
}

// readFlashPair reads the pair addressed by rp from flash, issued at
// at: its head page plus continuations for extents. A non-nil epoch
// receives the record's write epoch (the page spare's base plus the sig
// entry's delta); only snapshot reads ask, so other reads never touch
// the spare. It moves no clock. Safe for concurrent readers: flash page reads are
// pure and the single-slot signature decode allocates nothing. (The
// extent reassembly path allocates, but only multi-page values take
// it.) Both tiers' reads and both snapshot read paths come here; each
// caller knows the page is programmed.
func (d *Device) readFlashPair(at sim.Time, rp layout.RP, withValue bool, epoch *uint64) (hdr layout.PairHeader, key, value []byte, done sim.Time, err error) {
	ppa := nand.PPA(rp.Page())
	data, spare, done, err := d.flash.Read(at, ppa)
	if err != nil {
		return hdr, nil, nil, at, err
	}
	info, _, err := layout.SigInfoAt(data, rp.Slot())
	if err != nil {
		return hdr, nil, nil, done, err
	}
	if epoch != nil {
		*epoch = layout.DataSpareEpoch(spare) + uint64(info.EpochDelta)
	}
	hdr, key, value, err = layout.DecodePairAt(data, int(info.Offset))
	if err != nil {
		return hdr, nil, nil, done, err
	}
	if withValue && hdr.ValueLen > len(value) {
		if value, done, err = d.readExtent(done, ppa, value, hdr.ValueLen); err != nil {
			return hdr, nil, nil, done, err
		}
	}
	return hdr, key, value, done, nil
}

// readExtent completes a multi-page value: head is the part stored on
// its head page ppa, and the continuations follow that page in the same
// block. Reads are issued back to back from at; the result is a private
// copy of valueLen bytes. Pure, like flash reads: safe with no lock.
func (d *Device) readExtent(at sim.Time, ppa nand.PPA, head []byte, valueLen int) ([]byte, sim.Time, error) {
	full := make([]byte, 0, valueLen)
	full = append(full, head...)
	for i := 1; len(full) < valueLen; i++ {
		cont, _, done, err := d.flash.Read(at, ppa+nand.PPA(i))
		if err != nil {
			return nil, at, err
		}
		at = done
		full = append(full, cont[:min(len(cont), valueLen-len(full))]...)
	}
	return full, at, nil
}

// beginLocked readies a read under the exclusive lock: it reserves room
// for the index write-backs its lookup may cause and reclaims what no
// lock-free reader can still hold.
func (d *Device) beginLocked() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if err := d.reserveRead(1 + d.splitPages(1)); err != nil {
		return err
	}
	d.collectRetired()
	return nil
}

// RetrieveAppend executes a get command under the caller's exclusive
// lock, appending the value to dst (which may be nil) and returning the
// command's completion time. The stored key is compared to the request
// key before returning, so signature collisions can never return the
// wrong value (§IV-A3). A reused dst makes it the allocation-free path.
func (d *Device) RetrieveAppend(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if err := d.beginLocked(); err != nil {
		return dst, d.env.now.Load(), err
	}
	return d.get(&read{}, submitAt, key, dst)
}

// Retrieve is RetrieveAppend into a fresh buffer: the value is a copy.
func (d *Device) Retrieve(submitAt sim.Time, key []byte) ([]byte, sim.Time, error) {
	return d.RetrieveAppend(submitAt, key, nil)
}

// Exist executes a key-exist command under the caller's exclusive lock.
// The index answers from key signatures; on a hit the stored key is
// fetched and compared, so the result is exact (the extra flash read the
// paper describes for explicit membership checks as signature collisions
// become likely).
func (d *Device) Exist(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	if err := d.beginLocked(); err != nil {
		return false, d.env.now.Load(), err
	}
	return d.exist(&read{}, submitAt, key)
}

// get is the GET body. A hit in the hot-value tier skips the index and
// flash: the entry was live after its value was captured, and any
// overwrite invalidates it before acknowledging, so even a lock-free hit
// linearizes before every in-flight write's completion. The value is
// appended to dst.
func (d *Device) get(rd *read, submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	sig := d.scheme.Compute(key)
	var value []byte
	var vgen uint64
	hit := false
	if d.vcache != nil {
		// Snapshot the bucket generation before the index probe so the
		// insert below is refused if any overwrite lands in between.
		if value, hit = d.vcache.Lookup(sig.Lo, key); !hit {
			vgen = d.vcache.Gen(sig.Lo)
		}
	}
	var done sim.Time
	var err error
	if hit {
		d.arrive(submitAt, len(key))
		d.metaPerOp.Record(0) // no index page read
		d.metaPerGet.Record(0)
		done = d.env.now.Load()
	} else if value, done, err = d.find(rd, submitAt, key, sig, true); err != nil {
		return dst, done, err
	}
	// Value DMA back to the host, then the completion round trip.
	done = d.hostXfer(done, len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(submitAt)))
	if d.vcache != nil && !hit {
		d.vcache.Insert(vgen, sig.Lo, key, value)
	}
	return append(dst, value...), done, nil
}

// exist is the EXIST body. It counts the command once it answers, found
// or not, and never when it fails.
func (d *Device) exist(rd *read, submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	_, done, err := d.find(rd, submitAt, key, d.scheme.Compute(key), false)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return false, done, err
	}
	d.stats.exists.Add(1)
	return err == nil, done, nil
}

// find is the lookup both bodies share: the probe (lock-free), the
// command's arrival, the index answer, the pair read and the full-key
// verify, and then the answer. It returns ErrNotFound when no live pair
// holds key, and a GET's value (aliasing flash) otherwise.
func (d *Device) find(rd *read, submitAt sim.Time, key []byte, sig index.Sig, get bool) ([]byte, sim.Time, error) {
	if rd.r != nil {
		if err := d.probe(rd, sig); err != nil {
			return nil, 0, err
		}
	}
	d.arrive(submitAt, len(key))
	rp, found, err := d.lookup(rd, sig)
	done := d.env.now.Load()
	if err == nil && !found {
		err = ErrNotFound
	}
	var value []byte
	if err == nil {
		var hdr layout.PairHeader
		var stored []byte
		hdr, stored, value, done, err = d.readPair(layout.RP(rp), get, rd.r == nil)
		if err == nil && (hdr.Tombstone() || !bytes.Equal(stored, key)) {
			err = ErrNotFound
		}
		done = max(done, d.env.now.Load())
	}
	return value, done, d.answer(rd, get, err)
}

// probe is a lock-free read's index probe. It charges nothing and
// counts nothing, so a refusal leaves every clock and counter as it
// was. A found pair whose page is not readable is still in an open
// page, whose builder only the exclusive lock may read, or was yanked
// by an overlapping restructure: refuse.
func (d *Device) probe(rd *read, sig index.Sig) error {
	var st index.OptStatus
	rd.probe, st = rd.r.PeekOptimistic(sig)
	switch {
	case st == index.OptRetry:
		return index.ErrOptimisticRetry
	case st == index.OptNeedExclusive, rd.probe.Found && !d.flash.PageReadable(nand.PPA(layout.RP(rd.probe.RP).Page())):
		return index.ErrNeedExclusive
	}
	return nil
}

// lookup charges and returns the index's answer for sig. Locked: the
// index's own Get, which pages in or migrates as it must and counts the
// index pages it reads. Lock-free: the probe's answer, charged as that
// Get charges it: the lookup CPU, then the index page read when the
// probe answered from its bucket's page image.
func (d *Device) lookup(rd *read, sig index.Sig) (rp uint64, found bool, err error) {
	if rd.r == nil {
		d.env.reads = 0
		rp, found, err = d.idx.Get(sig)
		rd.meta = d.env.reads
		return rp, found, err
	}
	d.env.ChargeCPU(rd.r.OptimisticLookupCost())
	if rd.probe.FromPage {
		if _, err := d.env.chargePage(rd.probe.Page); err != nil {
			return 0, false, err
		}
		rd.meta = 1
	}
	return rd.probe.RP, rd.probe.Found, nil
}

// answer ends a read's lookup, err being its outcome: nil, ErrNotFound
// or a fault. A lock-free read must first find its probe and the device
// structure unchanged — its linearization point: the record pointer, the
// pair bytes and the key comparison all belong to one index state — or
// it returns ErrOptimisticRetry, and the charges it made stand: the
// speculative work really occupied the firmware. A lock-free read that
// does answer applies the cache side effects the locked Get had, and
// answers a fault as the locked read would. The command's metadata-read
// sample is recorded here, once.
func (d *Device) answer(rd *read, get bool, err error) error {
	if rd.r != nil && !d.settle(rd) {
		return index.ErrOptimisticRetry
	}
	d.metaPerOp.Record(rd.meta)
	if get {
		d.metaPerGet.Record(rd.meta)
	}
	return err
}

// settle reports whether a lock-free read's probe and the device
// structure it began against (mutSeq) are both unchanged, and if so
// applies the probe's cache side effects.
func (d *Device) settle(rd *read) bool {
	if !rd.r.RevalidateOptimistic(rd.probe) || d.mutSeq.Load() != rd.m1 {
		return false
	}
	rd.r.CommitOptimistic(rd.probe)
	return true
}
