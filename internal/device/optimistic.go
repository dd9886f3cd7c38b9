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
//     version or unpublishes its table, so the final revalidation after
//     all dependent flash reads is the read's linearization point.
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
// exclusive retrieve()/exist() bodies exactly, so a single-threaded run
// produces a byte-identical timeline whichever path serves the command.
// Charges made before a LATER validation fails stand — the speculative
// work really occupied the firmware — so only genuinely-raced
// operations pay for a retry.

// TryRetrieveOptimistic executes a get with no caller lock. It returns
// index.ErrNeedExclusive when no lock-free read can succeed (bucket not
// DRAM-resident, record still in a volatile buffer, pin table full, or
// the index has no optimistic surface) and index.ErrOptimisticRetry
// when a concurrent mutation invalidated the attempt; both refusals are
// made before any simulated-time charge if detected at the probe. On
// success the value is appended to dst.
func (d *Device) TryRetrieveOptimistic(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	if d.closed.Load() {
		return dst, d.env.now.Load(), ErrClosed
	}
	r := d.optIdx.Load()
	if r == nil {
		return dst, 0, index.ErrNeedExclusive
	}
	pin, ok := d.reclaim.TryPin()
	if !ok {
		return dst, 0, index.ErrNeedExclusive
	}
	// Unpin open-coded (no defer) to keep the hot path allocation-free.
	v, done, err := d.tryRetrieveOptimistic(r, submitAt, key, dst)
	d.reclaim.Unpin(pin)
	return v, done, err
}

// tryRetrieveOptimistic is the pinned body of TryRetrieveOptimistic.
func (d *Device) tryRetrieveOptimistic(r *core.RHIK, submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	m1 := d.mutSeq.Load()
	if m1&1 != 0 {
		return dst, 0, index.ErrOptimisticRetry
	}
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
		// Still buffered in an open page (read-your-writes lives in the
		// pending map) or yanked by an overlapping restructure: only the
		// exclusive path may resolve it.
		return dst, 0, index.ErrNeedExclusive
	}

	// The probe validated: charge exactly what the exclusive retrieve()
	// charges from here on.
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	start := submitAt
	d.env.ChargeCPU(d.cfg.CmdCPU)
	d.env.ChargeCPU(r.OptimisticLookupCost())
	d.metaPerOp.Record(0)
	d.metaPerGet.Record(0)

	if !probe.Found {
		if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
			return dst, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		return dst, d.env.now.Load(), ErrNotFound
	}
	hdr, storedKey, value, done, err := d.readFlashPair(layout.RP(probe.RP), true, false)
	if err != nil {
		// Never surface a raw flash error from the lock-free tier. If the
		// structure moved underneath us this is a raced read — retry. If
		// it did not, the likely cause is a continuation page of a
		// multi-page pair still sitting in the open write buffer (only the
		// head page was pre-checked readable); the exclusive path resolves
		// pending pairs, and re-reports any genuine fault.
		if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
			return dst, 0, index.ErrOptimisticRetry
		}
		return dst, 0, index.ErrNeedExclusive
	}
	if hdr.Tombstone() || !bytes.Equal(storedKey, key) {
		if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
			return dst, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		return dst, done, ErrNotFound
	}
	if now := d.env.now.Load(); done < now {
		done = now
	}
	// Linearization point: the probed table version is unchanged after
	// every dependent flash access, so RP, the pair bytes, and the key
	// comparison all belong to one consistent index state. The value
	// slice stays stable past this point because the epoch pin blocks
	// reuse of its underlying buffer even if the block is erased now.
	if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
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
	r := d.optIdx.Load()
	if r == nil {
		return false, 0, index.ErrNeedExclusive
	}
	pin, ok := d.reclaim.TryPin()
	if !ok {
		return false, 0, index.ErrNeedExclusive
	}
	found, done, err := d.tryExistOptimistic(r, submitAt, key)
	d.reclaim.Unpin(pin)
	return found, done, err
}

// tryExistOptimistic is the pinned body of TryExistOptimistic.
func (d *Device) tryExistOptimistic(r *core.RHIK, submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	m1 := d.mutSeq.Load()
	if m1&1 != 0 {
		return false, 0, index.ErrOptimisticRetry
	}
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

	// Mirror the exclusive exist() charges: command CPU, the lookup
	// charge, and a zero metadata-read sample (exist does not feed the
	// per-get histogram).
	arrive := d.hostXfer(submitAt, len(key))
	d.env.now.AdvanceTo(arrive)
	d.env.ChargeCPU(d.cfg.CmdCPU)
	d.env.ChargeCPU(r.OptimisticLookupCost())
	d.metaPerOp.Record(0)

	if !probe.Found {
		if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
			return false, 0, index.ErrOptimisticRetry
		}
		r.CommitOptimistic(probe)
		d.stats.exists.Add(1)
		return false, d.env.now.Load(), nil
	}
	hdr, storedKey, _, _, err := d.readFlashPair(layout.RP(probe.RP), false, true)
	if err != nil {
		// Same contract as the retrieve body: raced → retry, otherwise
		// escalate so the exclusive path resolves pending continuation
		// pages or re-reports a genuine fault. Raw flash errors never
		// escape the lock-free tier.
		if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
			return false, 0, index.ErrOptimisticRetry
		}
		return false, 0, index.ErrNeedExclusive
	}
	if !r.RevalidateOptimistic(probe) || d.mutSeq.Load() != m1 {
		return false, 0, index.ErrOptimisticRetry
	}
	r.CommitOptimistic(probe)
	d.stats.exists.Add(1)
	return !hdr.Tombstone() && bytes.Equal(storedKey, key), d.env.now.Load(), nil
}
