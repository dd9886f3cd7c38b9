package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// maxGroup bounds how many waiting mutations one group commit absorbs:
// one shard-lock acquisition, one device apply run, one log append, one
// fsync (policy permitting) amortized over up to this many writers.
const maxGroup = 256

// ErrDeadline answers a submitted mutation whose deadline passed before
// the committer reached it; the mutation was not applied.
var ErrDeadline = errors.New("shard: mutation deadline passed before commit")

// walReq is one mutation waiting on a shard's committer. The committer
// owns key and value until it calls done.
type walReq struct {
	op       wal.Op
	key      []byte
	value    []byte
	deadline time.Time // zero: none
	done     func(error)
	err      error // the outcome, set by commitGroup
}

// AttachWAL opens (or recovers) a write-ahead log under root — one
// subdirectory per shard — and routes all subsequent mutations through
// per-shard group committers. The emulated device is volatile, so on
// reopen the full retained log is replayed into the fresh shards before
// AttachWAL returns; a torn tail on any shard's newest segment is
// truncated, never replayed. The root's manifest pins the shard
// topology: reopening with a different shard count or signature scheme
// is refused rather than replaying keys into the wrong shards.
//
// Call once, before the set serves traffic, and pair with Close.
func (s *Set) AttachWAL(root string, opts wal.Options) (wal.ReplayInfo, error) {
	var total wal.ReplayInfo
	if s.shards[0].log != nil {
		return total, errors.New("shard: WAL already attached")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return total, fmt.Errorf("shard: wal root: %w", err)
	}
	m := wal.Manifest{Shards: len(s.shards), SigBits: s.scheme.Bits, PrefixLen: s.scheme.PrefixLen}
	if err := wal.WriteManifest(root, m); err != nil {
		return total, err
	}
	for i, sh := range s.shards {
		l, err := wal.Open(filepath.Join(root, fmt.Sprintf("shard-%04d", i)), opts)
		if err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
		info, err := l.Replay(func(r *wal.Record) error { return sh.replay(r) })
		if err != nil {
			l.Close()
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
		total.Segments += info.Segments
		total.Records += info.Records
		total.TruncatedBytes += info.TruncatedBytes
		if info.LastSeq > total.LastSeq {
			total.LastSeq = info.LastSeq
		}
		sh.log = l
		// One full group can queue while the previous one commits;
		// past that, TrySubmit reports the queue full.
		sh.commitCh = make(chan *walReq, maxGroup)
		s.walWG.Add(1)
		go s.committer(sh)
	}
	return total, nil
}

// WALAttached reports whether mutations are routed through a WAL.
func (s *Set) WALAttached() bool { return s.shards[0].log != nil }

// WALDirs returns each shard's log directory, in shard order, or nil
// when no WAL is attached (tooling: walinfo).
func (s *Set) WALDirs() []string {
	if !s.WALAttached() {
		return nil
	}
	dirs := make([]string, len(s.shards))
	for i, sh := range s.shards {
		dirs[i] = sh.log.Dir()
	}
	return dirs
}

// replay applies one recovered record to the shard's fresh device. A
// delete whose key is absent is skipped, not failed: compaction folds
// segments to the newest record per key, so a tombstone can legally
// outlive the put it erased.
func (sh *Shard) replay(r *wal.Record) error {
	var done, last = sh.last.Load(), sh.last.Load()
	var err error
	switch r.Op {
	case wal.OpPut:
		done, err = sh.dev.Store(last, r.Key, r.Value)
	case wal.OpDelete:
		done, err = sh.dev.Delete(last, r.Key)
		if errors.Is(err, device.ErrNotFound) {
			return nil
		}
	default:
		return fmt.Errorf("unknown op %v", r.Op)
	}
	if err != nil {
		return err
	}
	// Each replayed record is its own batch: epochs stay monotone across
	// the replay, mirroring the order the original commits closed in.
	sh.dev.AdvanceEpoch()
	sh.last.AdvanceTo(done)
	return nil
}

// committer is the shard's group-commit loop: it blocks for one waiting
// mutation, drains whatever has queued behind it — submissions from
// every caller meet in the one channel — and commits the whole group
// under a single shard-lock acquisition and a single log append. Under
// FsyncGroup it syncs once the queue drains, rather than per append.
func (s *Set) committer(sh *Shard) {
	defer s.walWG.Done()
	reqs := make([]*walReq, 0, maxGroup)
	recs := make([]wal.Record, 0, maxGroup)
	for {
		first, ok := <-sh.commitCh
		if !ok {
			return
		}
		reqs = append(reqs[:0], first)
	drain:
		for len(reqs) < maxGroup {
			select {
			case r, ok := <-sh.commitCh:
				if !ok {
					break drain
				}
				reqs = append(reqs, r)
			default:
				break drain
			}
		}
		recs = sh.commitGroup(s, reqs, recs[:0])
		clear(reqs)
		clear(recs)
		if sh.log.Fsync() == wal.FsyncGroup && len(sh.commitCh) == 0 {
			sh.log.Sync()
		}
	}
}

// commitGroup applies one group: lock the shard once, apply every
// mutation to the device, reserve sequence numbers for the ones that
// succeeded (still under the lock, so sequence order is apply order),
// then release the lock, append the group to the log in one write, and
// acknowledge every request. A request whose deadline has passed is
// answered ErrDeadline without being applied. Failed device operations
// are never logged — replay must not resurrect a write the caller saw
// fail — and a log append failure is reported to every request whose
// record it carried. recs is the committer's scratch, returned for
// reuse.
func (sh *Shard) commitGroup(s *Set, reqs []*walReq, recs []wal.Record) []wal.Record {
	now := time.Now()
	sh.mu.Lock()
	for _, req := range reqs {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			req.err = ErrDeadline
			continue
		}
		var done sim.Time
		switch req.op {
		case wal.OpPut:
			done, req.err = sh.dev.Store(sh.last.Load(), req.key, req.value)
		case wal.OpDelete:
			done, req.err = sh.dev.Delete(sh.last.Load(), req.key)
		}
		if req.err != nil {
			continue
		}
		sh.last.AdvanceTo(done)
		recs = append(recs, wal.Record{
			Op:    req.op,
			Sig:   s.scheme.Compute(req.key).Lo,
			Key:   req.key,
			Value: req.value,
		})
	}
	if len(recs) > 0 {
		first := sh.log.ReserveSeqs(len(recs))
		for i := range recs {
			recs[i].Seq = first + uint64(i)
		}
		// One group = one mutation batch: close its epoch while the lock
		// still fences out snapshot capture, so a snapshot taken between
		// groups sees whole batches only.
		sh.dev.AdvanceEpoch()
	}
	sh.mu.Unlock()

	var aerr error
	if len(recs) > 0 {
		aerr = sh.log.Append(recs)
	}
	for _, req := range reqs {
		if req.err == nil {
			req.err = aerr // its record rode in this append
		}
		req.done(req.err)
	}
	return recs
}

// TrySubmit hands one mutation (wal.OpPut or wal.OpDelete) to the
// owning shard's group committer without waiting, and reports false —
// nothing enqueued, done never called — when the committer's queue is
// full. Otherwise the committer calls done exactly once: with the
// mutation's outcome after its group has been applied and logged
// (durable per the fsync policy), or with ErrDeadline, unapplied, if
// deadline (zero: none) passed before the committer reached it. key and
// value must stay untouched until done runs. done runs on the
// committer goroutine and must not block for long: the shard's next
// group waits for it. Requires an attached WAL.
func (s *Set) TrySubmit(op wal.Op, key, value []byte, deadline time.Time, done func(error)) bool {
	req := &walReq{op: op, key: key, value: value, deadline: deadline, done: done}
	select {
	case s.shardOf(key).commitCh <- req:
		return true
	default:
		return false
	}
}

// commit routes one mutation through the shard's committer and waits
// for the acknowledgment (durable per the configured fsync policy).
func (sh *Shard) commit(op wal.Op, key, value []byte) error {
	errc := make(chan error, 1)
	sh.commitCh <- &walReq{op: op, key: key, value: value, done: func(err error) { errc <- err }}
	return <-errc
}

// logBatch journals the successful mutations of an Apply sub-batch.
// Called with the shard lock HELD for the sequence reservation — apply
// order equals sequence order — and appends before returning, so the
// batch result is acknowledged no earlier than the log write. idxs and
// errs index the full batch; a log append failure is surfaced on every
// op whose record it carried.
func (sh *Shard) logBatch(s *Set, ops []Op, idxs []int, errs []error) {
	recs := make([]wal.Record, 0, len(idxs))
	owners := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if errs[i] != nil {
			continue
		}
		var wop wal.Op
		switch ops[i].Kind {
		case workload.OpStore:
			wop = wal.OpPut
		case workload.OpDelete:
			wop = wal.OpDelete
		default:
			continue
		}
		recs = append(recs, wal.Record{
			Op:    wop,
			Sig:   s.scheme.Compute(ops[i].Key).Lo,
			Key:   ops[i].Key,
			Value: ops[i].Value,
		})
		owners = append(owners, i)
	}
	if len(recs) == 0 {
		return
	}
	first := sh.log.ReserveSeqs(len(recs))
	for j := range recs {
		recs[j].Seq = first + uint64(j)
	}
	if err := sh.log.Append(recs); err != nil {
		for _, i := range owners {
			errs[i] = err
		}
	}
}

// stopCommitters shuts down every shard's committer and waits for
// in-flight groups to finish. Mutations submitted after this panic on
// the closed channel, matching the "no commands after Close" contract.
func (s *Set) stopCommitters() {
	if !s.WALAttached() || !s.walStopped.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range s.shards {
		close(sh.commitCh)
	}
	s.walWG.Wait()
}

// CheckpointWAL is the log half of a checkpoint: each shard's log is
// synced and its horizon advanced to the highest sequence the device
// checkpoint covered, unlocking compaction beneath it. Compaction runs
// inline here (it reads only sealed, immutable segments, so appends
// continue concurrently).
func (s *Set) checkpointWAL(horizons []uint64) error {
	var errs []error
	for i, sh := range s.shards {
		if sh.log == nil {
			continue
		}
		if err := sh.log.SetHorizon(horizons[i]); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			continue
		}
		if _, err := sh.log.Compact(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: compact: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// WALStats merges every shard's log counters; zero value when no WAL
// is attached.
func (s *Set) WALStats() wal.Stats {
	var out wal.Stats
	for _, sh := range s.shards {
		if sh.log == nil {
			continue
		}
		st := sh.log.Stats()
		out.Merge(&st)
	}
	return out
}
