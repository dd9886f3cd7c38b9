package core

import (
	"repro/internal/index"
	"repro/internal/sim"
)

// migration is the in-flight state of a re-configuration. The directory
// is swapped immediately and buckets migrate lazily: each operation
// migrates the bucket it touches (the paper's suggested "hyper-local
// scaling", §VI) plus a small background quota, so the per-command cost
// is bounded and tail latency stays flat. The paper's stop-the-world
// doubling (§IV-A2) is the same migration drained inside the halt
// (HaltResize).
type migration struct {
	oldGen    *generation
	migrated  []bool
	cursor    uint64 // every old bucket below it is migrated
	oldD      int
	started   sim.Time
	keys      int64
	remaining int
}

// PendingSplits reports the old buckets an in-flight migration has left
// to split and how many one index operation may split: its background
// quota plus the bucket its key maps to. Both are zero when no
// migration is in flight.
func (r *RHIK) PendingSplits() (left, perOp int) {
	if r.mig == nil {
		return 0, 0
	}
	return r.mig.remaining, r.cfg.MigrateStepBuckets + 1
}

// startIncrementalResize swaps in a doubled directory and arms lazy
// migration. It performs no bucket work itself, so the submission queue
// halt is a few directory allocations long.
func (r *RHIK) startIncrementalResize() error {
	// A forced re-configuration (collision-driven, not occupancy-driven)
	// can arrive while a migration is in flight; finish it first so
	// oldDirs is always a complete generation.
	if err := r.drainMigration(); err != nil {
		return err
	}
	oldG := r.g()
	oldD := len(oldG.dirs)
	mig := &migration{
		oldGen:    oldG,
		migrated:  make([]bool, oldD),
		oldD:      oldD,
		started:   r.env.Now(),
		keys:      r.n,
		remaining: oldD,
	}
	newG := newGeneration(2 * oldD)
	newG.cache = r.newCache(newG)
	newG.migrating.Store(true)
	// Publish the doubled generation before any bucket migrates: readers
	// that load it see it migrating and escalate every bucket it has not
	// cached; readers still holding the old generation keep validating
	// against it until splitBucket unpublishes their bucket or the
	// generation check fails.
	r.gen.Store(newG)
	r.cache = newG.cache
	r.dBits++
	r.mig = mig
	return nil
}

// prepare makes sig's bucket safe to access under the new directory:
// migrate the touched bucket if needed, plus a background quota so the
// migration completes even over skewed workloads.
func (r *RHIK) prepare(sig index.Sig) error {
	for quota := r.cfg.MigrateStepBuckets; quota > 0 && r.mig != nil; {
		split, err := r.advance()
		if err != nil {
			return err
		}
		if split {
			quota--
		}
	}
	if r.mig == nil {
		return nil
	}
	oldB := sig.Lo & uint64(r.mig.oldD-1)
	if !r.mig.migrated[oldB] {
		return r.migrateBucket(oldB)
	}
	return nil
}

// advance moves the migration cursor past the lowest old bucket left,
// splitting it first unless an operation already migrated it on touch.
// It reports whether it split a bucket.
func (r *RHIK) advance() (bool, error) {
	mig := r.mig
	b := mig.cursor
	split := !mig.migrated[b]
	if split {
		if err := r.migrateBucket(b); err != nil {
			return false, err
		}
	}
	mig.cursor++
	return split, nil
}

// migrateBucket moves one old-generation bucket into the doubled
// directory (at most one flash read, like any bucket access).
func (r *RHIK) migrateBucket(b uint64) error {
	mig := r.mig
	if err := r.splitBucket(mig.oldGen, r.g(), b); err != nil {
		return err
	}
	mig.migrated[b] = true
	mig.remaining--
	if mig.remaining == 0 {
		r.finishMigration()
	}
	return nil
}

// finishMigration retires the old generation and records the resize.
func (r *RHIK) finishMigration() {
	mig := r.mig
	r.mig = nil
	r.g().migrating.Store(false)
	r.resizes = append(r.resizes, index.ResizeEvent{
		KeysBefore:  mig.keys,
		NewCapacity: r.Capacity(),
		Took:        r.env.Now().Sub(mig.started),
	})
}

// drainMigration migrates every remaining bucket in cursor order: the
// halt of a stop-the-world doubling, and what flushes, checkpoints and
// enumerations run first so state is single-generation.
func (r *RHIK) drainMigration() error {
	for r.mig != nil {
		if _, err := r.advance(); err != nil {
			return err
		}
	}
	return nil
}
