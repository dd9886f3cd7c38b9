package shard

import (
	"sync/atomic"

	"repro/internal/device"
)

// SetSnapshot is a consistent point-in-time view across every shard.
// Capture takes ALL shard write locks simultaneously — the only moment
// the set has a well-defined global state, since group commits apply
// and acknowledge under those locks — then opens one device snapshot
// per shard and releases the locks. The capture instant is the
// snapshot's linearization point: every acknowledged write is included,
// every later commit excluded.
//
// After capture, reads never take a shard write lock: point reads ride
// the device's optimistic fast path (live-index probe, epoch-validated
// at the seqlock linearization point) with a frozen-view fallback, and
// Iterate scans the frozen views outright, all concurrently with
// writers committing through the WAL.
type SetSnapshot struct {
	set      *Set
	snaps    []*device.Snapshot // one per shard, in shard order
	epoch    uint64             // sum of per-shard write epochs at capture
	released atomic.Bool
}

// Snapshot captures a consistent view of the whole set. Callers must
// Release it; an unreleased snapshot pins flash blocks against GC on
// every shard.
func (s *Set) Snapshot() (*SetSnapshot, error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	snaps := make([]*device.Snapshot, len(s.shards))
	var err error
	for i, sh := range s.shards {
		if snaps[i], err = sh.dev.OpenSnapshot(); err != nil {
			break
		}
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	if err != nil {
		for _, sn := range snaps {
			if sn != nil {
				sn.Release()
			}
		}
		return nil, err
	}
	ss := &SetSnapshot{set: s, snaps: snaps}
	for _, sn := range snaps {
		ss.epoch += sn.Epoch()
	}
	s.snapsOpen.Add(1)
	return ss, nil
}

// Epoch reports the set-level visibility bound: the sum of per-shard
// write epochs at capture. All shards were frozen at one instant, so
// two captures with no intervening commits report the same epoch.
func (ss *SetSnapshot) Epoch() uint64 { return ss.epoch }

// Records reports the total frozen records across shards.
func (ss *SetSnapshot) Records() int {
	n := 0
	for _, sn := range ss.snaps {
		n += sn.Records()
	}
	return n
}

// Valid reports whether every per-shard snapshot is still readable.
func (ss *SetSnapshot) Valid() bool {
	if ss.released.Load() {
		return false
	}
	for _, sn := range ss.snaps {
		if !sn.Valid() {
			return false
		}
	}
	return true
}

// Release drops every shard's snapshot. Idempotent.
func (ss *SetSnapshot) Release() {
	if !ss.released.CompareAndSwap(false, true) {
		return
	}
	for _, sn := range ss.snaps {
		sn.Release()
	}
	ss.set.snapsOpen.Add(-1)
}

// Get reads key's value as of the capture instant, taking no shard
// lock. Returns device.ErrNotFound when the key had no live value in
// the snapshot.
func (ss *SetSnapshot) Get(key []byte) ([]byte, error) {
	if ss.released.Load() {
		return nil, device.ErrSnapshotReleased
	}
	i := ss.set.route(ss.set.scheme.Compute(key))
	sh := ss.set.shards[i]
	v, done, err := ss.snaps[i].Get(sh.last.Load(), key, nil)
	if err != nil {
		return nil, err
	}
	sh.last.AdvanceTo(done)
	ss.set.snapReads.Add(1)
	return v, nil
}

// Iterate enumerates the snapshot's keys sharing prefix (nil matches
// everything) across all shards, merged in key order. Unlike the live
// Set.Iterate it takes no shard write lock — the frozen views are read
// concurrently with committing writers — and it works without an
// iterator-mode signature scheme.
func (ss *SetSnapshot) Iterate(prefix []byte) ([]device.IterEntry, error) {
	if ss.released.Load() {
		return nil, device.ErrSnapshotReleased
	}
	return scatter(len(ss.snaps), func(i int) ([]device.IterEntry, error) {
		sh := ss.set.shards[i]
		entries, done, err := ss.snaps[i].Scan(sh.last.Load(), prefix, true)
		if err != nil {
			return nil, err
		}
		sh.last.AdvanceTo(done)
		return entries, nil
	})
}

// SnapshotStats is the frozen observability view of one SetSnapshot.
// It reads only snapshot-local and atomic state — no shard lock.
type SnapshotStats struct {
	Epoch    uint64
	Records  int
	Reads    int64 // point reads served through this snapshot
	FastHits int64 // of those, served by the live-index fast path
	Valid    bool
}

// Stats reports the snapshot's frozen counters.
func (ss *SetSnapshot) Stats() SnapshotStats {
	st := SnapshotStats{Epoch: ss.epoch, Valid: ss.Valid()}
	for _, sn := range ss.snaps {
		st.Records += sn.Records()
		st.Reads += sn.Reads()
		st.FastHits += sn.FastHits()
	}
	return st
}
