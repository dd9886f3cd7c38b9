package core

import (
	"repro/internal/index"
	"repro/internal/sim"
)

// migration is the in-flight state of an incremental re-configuration:
// the paper's "real-time index scaling" future-work direction (§VI).
// Instead of halting the submission queue and migrating every bucket at
// once, the directory is swapped immediately and buckets migrate lazily:
// each operation migrates the bucket it touches (the paper's suggested
// "hyper-local scaling") plus a small background quota, so the
// per-command cost is bounded and tail latency stays flat.
type migration struct {
	oldGen    *generation
	migrated  []bool
	cursor    uint64
	oldD      int
	started   sim.Time
	keys      int64
	remaining int
}

// Incremental reports whether lazy re-configuration is enabled.
func (r *RHIK) Incremental() bool { return r.cfg.IncrementalResize }

// Migrating reports whether an incremental migration is in flight.
func (r *RHIK) Migrating() bool { return r.mig != nil }

// startIncrementalResize swaps in a doubled directory and arms lazy
// migration. It performs no bucket work itself, so the submission queue
// halt is a few directory allocations long.
func (r *RHIK) startIncrementalResize() error {
	// A forced re-configuration (collision-driven, not occupancy-driven)
	// can arrive while a migration is in flight; finish it first so
	// oldDirs is always a complete generation.
	if r.mig != nil {
		if err := r.drainMigration(); err != nil {
			return err
		}
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
	// Publish the doubled generation before any bucket migrates: readers
	// that load it see nil resident slots for unmigrated buckets and
	// escalate; readers still holding the old generation keep validating
	// against it until migrateBucket unpublishes their bucket.
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
	if r.mig == nil {
		return nil
	}
	quota := r.cfg.MigrateStepBuckets
	for quota > 0 && r.mig != nil {
		b := r.mig.cursor
		if b >= uint64(r.mig.oldD) {
			break
		}
		r.mig.cursor++
		if r.mig.migrated[b] {
			continue
		}
		if err := r.migrateBucket(b); err != nil {
			return err
		}
		quota--
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

// migrateBucket moves one old-generation bucket into the doubled
// directory (at most one flash read, like any bucket access).
func (r *RHIK) migrateBucket(b uint64) error {
	mig := r.mig
	if err := r.splitBucket(mig.oldGen, r.g(), b, "incremental"); err != nil {
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
	r.resizes = append(r.resizes, index.ResizeEvent{
		KeysBefore:  mig.keys,
		NewCapacity: r.Capacity(),
		Took:        r.env.Now().Sub(mig.started),
	})
}

// drainMigration migrates every remaining bucket (used before flushes,
// checkpoints, and explicit Resize calls so state is single-generation).
func (r *RHIK) drainMigration() error {
	for r.mig != nil {
		// Find the next unmigrated bucket.
		b := uint64(0)
		found := false
		for i, done := range r.mig.migrated {
			if !done {
				b = uint64(i)
				found = true
				break
			}
		}
		if !found {
			r.finishMigration()
			break
		}
		if err := r.migrateBucket(b); err != nil {
			return err
		}
	}
	return nil
}
