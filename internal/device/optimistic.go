package device

import (
	"repro/internal/epoch"
	"repro/internal/index"
	"repro/internal/sim"
)

// This file is the lock-free read tier's entry. TryRetrieveOptimistic
// and TryExistOptimistic run the same GET and EXIST bodies as the
// locked reads (read.go), with NO shard lock at all, concurrently with
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
//     erases and Restart. A read that saw it move retries; a flash
//     error met while it stood still is the command's answer, as it is
//     the locked read's.
//
// A refusal (ErrNeedExclusive) or retry (ErrOptimisticRetry) detected
// at the probe is zero-charge: no simulated time, no counters. Once the
// probe validates, the body charges what the locked read charges, index
// page read included. Only the final validation can still send a read
// back, and the charges made before it stand.

// TryRetrieveOptimistic executes a get with no caller lock. It returns
// index.ErrNeedExclusive when no lock-free read can succeed (a miss the
// locked read would install, a bucket still migrating, a record still
// in a volatile buffer, pin table full, or the index has no optimistic
// surface) and index.ErrOptimisticRetry when a concurrent mutation
// invalidated the attempt; both refusals are made before any
// simulated-time charge if detected at the probe. On success the value
// is appended to dst.
func (d *Device) TryRetrieveOptimistic(submitAt sim.Time, key, dst []byte) ([]byte, sim.Time, error) {
	rd, pin, err := d.optBegin()
	if err != nil {
		return dst, 0, err
	}
	// Unpin open-coded (no defer) to keep the hot path allocation-free.
	v, done, err := d.get(&rd, submitAt, key, dst)
	d.reclaim.Unpin(pin)
	return v, done, err
}

// TryExistOptimistic executes a key-exist command with no caller lock,
// under the same refusal/retry contract as TryRetrieveOptimistic.
func (d *Device) TryExistOptimistic(submitAt sim.Time, key []byte) (bool, sim.Time, error) {
	rd, pin, err := d.optBegin()
	if err != nil {
		return false, 0, err
	}
	found, done, err := d.exist(&rd, submitAt, key)
	d.reclaim.Unpin(pin)
	return found, done, err
}

// optBegin starts a lock-free read: it snapshots the structure-mutation
// sequence, then loads the index the read runs against, then pins the
// reclamation epoch. The order matters: Restart swaps the index inside
// its bracket, so a read that got the index it replaced sees the
// sequence move and retries instead of answering from a directory
// nothing updates any more.
func (d *Device) optBegin() (rd read, pin epoch.Pin, err error) {
	if d.closed.Load() {
		return rd, pin, ErrClosed
	}
	rd.m1 = d.mutSeq.Load()
	if rd.r = d.optIdx.Load(); rd.r == nil {
		return rd, pin, index.ErrNeedExclusive
	}
	if rd.m1&1 != 0 {
		return rd, pin, index.ErrOptimisticRetry
	}
	pin, ok := d.reclaim.TryPin()
	if !ok {
		return rd, pin, index.ErrNeedExclusive
	}
	return rd, pin, nil
}
