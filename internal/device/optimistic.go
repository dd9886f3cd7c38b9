package device

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
)

// This file is the lock-free read tier. TryRetrieveOptimistic and
// TryExistOptimistic run with NO shard lock at all, concurrently with
// writers holding the exclusive lock. Safety rests on three mechanisms:
//
//   - The index probe validates against RHIK's per-table seqlocks and
//     the atomically-swapped directory generation (core.PeekOptimistic /
//     RevalidateOptimistic). Every mutation that could invalidate the
//     probed record pointer — an insert, delete, GC relocation, cache
//     eviction, or re-configuration of its bucket — bumps that bucket's
//     version, unpublishes its table, or repoints its directory slot,
//     so the final revalidation after all dependent flash reads is the
//     read's linearization point. A bucket whose table is not resident
//     is answered from its index page's image when the locked read would
//     leave the cache alone too; the probe reads the page with no
//     charge, and the one index read is charged only once the probe has
//     decided to answer.
//   - An epoch pin (taken before the probe, released after the last
//     dependent access) keeps retired record tables and erased flash
//     page buffers from being REUSED while this reader might still
//     alias them; Go's garbage collector makes dereferencing safe, the
//     pin makes the contents stable.
//   - The device structure-mutation sequence (mutSeq) brackets GC
//     erases and Restart. A flash error observed while it moved is a
//     casualty of the restructuring, reported as ErrOptimisticRetry
//     rather than surfaced to the host.
//
// Refusals (ErrNeedExclusive) and retries (ErrOptimisticRetry) detected
// before the probe validates are zero-charge: no simulated time, no
// counters. Once the probe validates, the charge sequence mirrors the
// exclusive retrieve()/exist() bodies exactly, index page read included,
// so a single-threaded run produces a byte-identical timeline whichever
// path serves the command.
// Charges made before a LATER validation fails stand — the speculative
// work really occupied the firmware — so only genuinely-raced
// operations pay for a retry.

// TryRetrieveOptimistic executes a get with no caller lock. It returns
// index.ErrNeedExclusive when no lock-free read can succeed (a miss the
// locked read would install, a bucket still migrating, a record still
// in a volatile buffer, pin table full, or the index has no optimistic
// surface) and index.ErrOptimisticRetry when a concurrent mutation
// invalidated the attempt; both refusals are made before any
// simulated-time charge if detected at the probe. On success the value
// is appended to dst.
func (d *Device) TryRetrieveOptimistic(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	m1, r, err := d.optBegin()
	if err != nil {
		return dst, 0, err
	}
	pin, ok := d.reclaim.TryPin()
	if !ok {
		return dst, 0, index.ErrNeedExclusive
	}
	// Unpin open-coded (no defer) to keep the hot path allocation-free.
	v, done, err := d.tryRetrieveOptimistic(r, m1, submitAt, key, dst)
	d.reclaim.Unpin(pin)
	return v, done, err
}

// optBegin snapshots the structure-mutation sequence and then loads the
// index a lock-free read runs against. The order matters: Restart swaps
// the index inside its bracket, so a read that got the index it
// replaced sees the sequence move and retries instead of answering
// from a directory nothing updates any more.
func (d *Device) optBegin() (m1 uint64, r *core.RHIK, err error) {
	m1 = d.mutSeq.Load()
	if r = d.optIdx.Load(); r == nil {
		return 0, nil, index.ErrNeedExclusive
	}
	if m1&1 != 0 {
		return 0, nil, index.ErrOptimisticRetry
	}
	return m1, r, nil
}

// tryRetrieveOptimistic is the pinned body of TryRetrieveOptimistic.
func (d *Device) tryRetrieveOptimistic(r *core.RHIK, m1 uint64, submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	sig := d.scheme.Compute(key)
	var vgen uint64
	if d.vcache != nil {
		if v, ok := d.vcache.Lookup(sig.Lo, key); ok {
			// The entry was live after its value was captured, and any
			// overwrite invalidates before acknowledging: this read
			// linearizes before every in-flight write's completion. Same
			// charges as the exclusive tier's value hit.
			out, done := d.retrieveValueHit(submitAt, key, v, dst)
			return out, done, nil
		}
		vgen = d.vcache.Gen(sig.Lo)
	}
	probe, st := r.PeekOptimistic(sig)
	switch st {
	case index.OptRetry:
		return dst, 0, index.ErrOptimisticRetry
	case index.OptNeedExclusive:
		return dst, 0, index.ErrNeedExclusive
	}
	if probe.Found && !d.flash.PageReadable(nand.PPA(layout.RP(probe.RP).Page())) {
		// Still buffered in an open page (read-your-writes reads the
		// writer's builder, which only the exclusive lock guards) or
		// yanked by an overlapping restructure: only the exclusive path
		// may resolve it.
		return dst, 0, index.ErrNeedExclusive
	}

	// The probe validated: charge exactly what the exclusive retrieve()
	// charges from here on.
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	start := submitAt
	d.env.ChargeCPU(d.cfg.CmdCPU)
	meta, err := d.chargeLookup(r, probe)
	if err != nil {
		return dst, 0, d.optFlashErr(r, probe, m1)
	}
	d.metaPerOp.Record(meta)
	d.metaPerGet.Record(meta)

	if !probe.Found {
		if !d.optValid(r, probe, m1) {
			return dst, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		return dst, d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, value, done, err := d.readFlashPair(layout.RP(probe.RP), true, false)
	if err != nil {
		return dst, 0, d.optFlashErr(r, probe, m1)
	}
	if hdr.Tombstone() || !bytes.Equal(storedKey, key) {
		if !d.optValid(r, probe, m1) {
			return dst, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		return dst, done, ErrNotFound
	}
	if now := d.env.now.Load(); done < now {
		done = now
	}
	// Linearization point: the probe is still current after every
	// dependent flash access, so RP, the pair bytes, and the key
	// comparison all belong to one consistent index state. The value
	// slice stays stable past this point because the epoch pin blocks
	// reuse of its underlying buffer even if the block is erased now.
	if !d.optValid(r, probe, m1) {
		return dst, 0, index.ErrOptimisticRetry
	}
	r.CommitOptimistic(probe)
	// Value DMA back to the host, then the completion round trip.
	done = d.hostXfer(done, len(value)).Add(d.cfg.AckOverhead)
	d.stats.retrieves.Add(1)
	d.stats.bytesRead.Add(int64(len(value)))
	d.latGet.Record(int64(done.Sub(start)))
	if d.vcache != nil {
		// Refused (via the generation check) if any overwrite of this
		// bucket landed since the pre-probe snapshot, so a slow reader can
		// never cache a stale value.
		d.vcache.Insert(vgen, sig.Lo, key, value)
	}
	return append(dst, value...), done, nil
}

// TryExistOptimistic executes a key-exist command with no caller lock,
// under the same refusal/retry contract as TryRetrieveOptimistic.
func (d *Device) TryExistOptimistic(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	if d.closed.Load() {
		return false, d.env.now.Load(), ErrClosed
	}
	m1, r, err := d.optBegin()
	if err != nil {
		return false, 0, err
	}
	pin, ok := d.reclaim.TryPin()
	if !ok {
		return false, 0, index.ErrNeedExclusive
	}
	found, done, err := d.tryExistOptimistic(r, m1, submitAt, key)
	d.reclaim.Unpin(pin)
	return found, done, err
}

// tryExistOptimistic is the pinned body of TryExistOptimistic.
func (d *Device) tryExistOptimistic(r *core.RHIK, m1 uint64, submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	sig := d.scheme.Compute(key)
	probe, st := r.PeekOptimistic(sig)
	switch st {
	case index.OptRetry:
		return false, 0, index.ErrOptimisticRetry
	case index.OptNeedExclusive:
		return false, 0, index.ErrNeedExclusive
	}
	if probe.Found && !d.flash.PageReadable(nand.PPA(layout.RP(probe.RP).Page())) {
		return false, 0, index.ErrNeedExclusive
	}

	// Mirror the exclusive exist() charges: command CPU, the lookup and
	// its metadata-read sample (exist does not feed the per-get
	// histogram).
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	meta, err := d.chargeLookup(r, probe)
	if err != nil {
		return false, 0, d.optFlashErr(r, probe, m1)
	}
	d.metaPerOp.Record(meta)

	if !probe.Found {
		if !d.optValid(r, probe, m1) {
			return false, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		d.stats.exists.Add(1)
		return false, d.env.now.Load(), nil
	}
	hdr, storedKey, _, _, err := d.readFlashPair(layout.RP(probe.RP), false, true)
	if err != nil {
		return false, 0, d.optFlashErr(r, probe, m1)
	}
	if !d.optValid(r, probe, m1) {
		return false, 0, index.ErrOptimisticRetry
	}
	r.CommitOptimistic(probe)
	d.stats.exists.Add(1)
	return !hdr.Tombstone() && bytes.Equal(storedKey, key), d.env.now.Load(), nil
}

// chargeLookup charges a validated probe's index lookup as the locked
// Get charges it: the lookup CPU, then — when the probe answered from
// its bucket's page image — that page's read. It reports the index
// pages read, the command's metadata-read sample.
func (d *Device) chargeLookup(r *core.RHIK, probe core.OptProbe) (int64, error) {
	d.env.ChargeCPU(r.OptimisticLookupCost())
	if !probe.FromPage {
		return 0, nil
	}
	if _, err := d.env.chargePage(probe.Page); err != nil {
		return 0, err
	}
	return 1, nil
}

// optValid reports whether a probe and the device structure it was
// taken against (mutSeq snapshot m1) are both unchanged.
func (d *Device) optValid(r *core.RHIK, probe core.OptProbe, m1 uint64) bool {
	return r.RevalidateOptimistic(probe) && d.mutSeq.Load() == m1
}

// optFlashErr turns a flash error met after the probe validated into the
// lock-free tier's answer; raw flash errors never escape it. If the
// probe or the structure moved underneath the read, it raced: retry.
// If not, the likely cause is a continuation page of a multi-page pair
// still in the open write buffer (only the head page was pre-checked
// readable), or an injected fault: the exclusive path reads open-page
// pairs and re-reports genuine faults.
func (d *Device) optFlashErr(r *core.RHIK, probe core.OptProbe, m1 uint64) error {
	if !d.optValid(r, probe, m1) {
		return index.ErrOptimisticRetry
	}
	return index.ErrNeedExclusive
}
