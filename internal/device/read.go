package device

import (
	"bytes"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// readPair fetches the pair addressed by rp: from an open page buffer if
// still pending, else from flash (head page plus continuations for
// extents). When blocking is true the firmware waits for the data (key
// verification gates the command); otherwise only the completion time
// reflects the read and the firmware moves on (data-out phase of a
// retrieve). Safe for concurrent readers: flash page reads are pure, the
// single-slot signature decode allocates nothing, and the timeline only
// moves through CAS-max advances. (The extent reassembly path allocates,
// but only multi-page values take it.)
func (d *Device) readPair(rp layout.RP, withValue, blocking bool) (hdr layout.PairHeader, key, value []byte, done sim.Time, err error) {
	if p, ok := d.pending[rp]; ok {
		hdr = layout.PairHeader{KeyLen: len(p.key), ValueLen: len(p.value)}
		return hdr, p.key, p.value, d.env.now.Load(), nil
	}
	ppa := nand.PPA(rp.Page())
	data, _, readDone, err := d.flash.Read(d.env.now.Load(), ppa)
	if err != nil {
		return hdr, nil, nil, d.env.now.Load(), err
	}
	done = readDone
	info, _, err := layout.SigInfoAt(data, rp.Slot())
	if err != nil {
		return hdr, nil, nil, done, err
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
	if blocking {
		d.env.now.AdvanceTo(done)
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

// retrieveValueHit completes a get served from the hot-value tier: no
// index probe, no flash. The charge sequence is identical in the
// exclusive and optimistic tiers (command arrival, command CPU, a zero
// metadata-read sample, value DMA, ack), so whichever tier hits produces
// the same timeline. Allocation-free when dst has capacity.
func (d *Device) retrieveValueHit(submitAt sim.Time, key, value, dst []byte) ([]byte, sim.Time) {
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	d.metaPerOp.Record(0)
	d.metaPerGet.Record(0)
	done := d.hostXfer(d.env.now.Load(), len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(submitAt)))
	return append(dst, value...), done
}

// retrieve is the get command body shared by the exclusive and shared
// entry points. The value is appended to dst (which may be nil).
func (d *Device) retrieve(submitAt sim.Time, key, dst []byte, sig index.Sig) ([]byte, sim.Time, error) {
	var vgen uint64
	if d.vcache != nil {
		if v, ok := d.vcache.Lookup(sig.Lo, key); ok {
			out, done := d.retrieveValueHit(submitAt, key, v, dst)
			return out, done, nil
		}
		// Snapshot the bucket generation before the index probe so the
		// insert below is refused if any overwrite lands in between.
		vgen = d.vcache.Gen(sig.Lo)
	}
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	start := submitAt
	d.env.ChargeCPU(d.cfg.CmdCPU)
	metaBefore := d.env.metaReads.Load()

	rp, ok, err := d.idx.Get(sig)
	metaDelta := d.env.metaReads.Load() - metaBefore
	d.metaPerOp.Record(metaDelta)
	d.metaPerGet.Record(metaDelta)
	if err != nil {
		return dst, d.env.now.Load(), err
	}
	if !ok {
		return dst, d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, value, done, err := d.readPair(layout.RP(rp), true, false)
	if err != nil {
		return dst, done, err
	}
	if hdr.Tombstone() || !bytes.Equal(storedKey, key) {
		return dst, done, ErrNotFound
	}
	if now := d.env.now.Load(); done < now {
		done = now
	}
	// Value DMA back to the host, then the completion round trip.
	done = d.hostXfer(done, len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(start)))
	if d.vcache != nil {
		d.vcache.Insert(vgen, sig.Lo, key, value)
	}
	return append(dst, value...), done, nil
}

// Retrieve executes a get command, returning the value (a copy) and the
// command's completion time. The stored key is compared to the request
// key before returning, so signature collisions can never return the
// wrong value (§IV-A3).
func (d *Device) Retrieve(submitAt sim.Time, key []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return nil, d.env.now.Load(), ErrClosed
	}
	d.collectRetired()
	v, done, err := d.retrieve(submitAt, key, nil, d.scheme.Compute(key))
	if err != nil {
		return nil, done, err
	}
	return v, done, nil
}

// RetrieveAppend is Retrieve with the value appended to dst, letting the
// caller reuse one buffer across gets (the allocation-free hot path).
// Requires the caller's exclusive lock, like Retrieve.
func (d *Device) RetrieveAppend(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	d.collectRetired()
	return d.retrieve(submitAt, key, dst, d.scheme.Compute(key))
}

// TryRetrieveShared executes a get under the caller's SHARED lock. It
// returns index.ErrNeedExclusive — before charging any simulated time or
// touching any counter — when the lookup would have to mutate index
// structure (cache miss, in-flight migration, pending write-back error);
// the caller re-executes under the exclusive lock. On success the value
// is appended to dst.
func (d *Device) TryRetrieveShared(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	sig := d.scheme.Compute(key)
	sr, ok := d.idx.(index.SharedReader)
	if !ok || !sr.SharedLookupReady(sig) {
		return dst, 0, index.ErrNeedExclusive
	}
	return d.retrieve(submitAt, key, dst, sig)
}

// exist is the key-exist command body shared by the exclusive and shared
// entry points.
func (d *Device) exist(submitAt sim.Time, key []byte, sig index.Sig) (bool, sim.Time, error) {
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	metaBefore := d.env.metaReads.Load()

	rp, ok, err := d.idx.Get(sig)
	d.metaPerOp.Record(d.env.metaReads.Load() - metaBefore)
	if err != nil {
		return false, d.env.now.Load(), err
	}
	d.stats.exists.Add(1)
	if !ok {
		return false, d.env.now.Load(), nil
	}
	hdr, storedKey, _, done, err := d.readPair(layout.RP(rp), false, true)
	if err != nil {
		return false, done, err
	}
	return !hdr.Tombstone() && bytes.Equal(storedKey, key), d.env.now.Load(), nil
}

// Exist executes a key-exist command. The index answers from key
// signatures; on a hit the stored key is fetched and compared, so the
// result is exact (the extra flash read the paper describes for explicit
// membership checks as signature collisions become likely).
func (d *Device) Exist(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	if d.closed.Load() {
		return false, d.env.now.Load(), ErrClosed
	}
	d.collectRetired()
	return d.exist(submitAt, key, d.scheme.Compute(key))
}

// TryExistShared executes a key-exist command under the caller's SHARED
// lock, returning index.ErrNeedExclusive (before any simulated-time
// charge) when the lookup is not DRAM-resident.
func (d *Device) TryExistShared(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	if d.closed.Load() {
		return false, d.env.now.Load(), ErrClosed
	}
	sig := d.scheme.Compute(key)
	sr, ok := d.idx.(index.SharedReader)
	if !ok || !sr.SharedLookupReady(sig) {
		return false, 0, index.ErrNeedExclusive
	}
	return d.exist(submitAt, key, sig)
}
