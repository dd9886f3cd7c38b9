package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/shard"
	"repro/internal/workload"
)

// libTarget drives a shard.Set in process.
type libTarget struct{ set *shard.Set }

func (t libTarget) get(dst, key []byte) ([]byte, error) { return t.set.RetrieveAppend(dst, key) }
func (t libTarget) put(key, value []byte) error         { return t.set.Store(key, value) }
func (t libTarget) scan(prefix []byte, visit func(key, value []byte)) error {
	entries, err := t.set.Iterate(prefix)
	if err != nil {
		return err
	}
	for i := range entries {
		visit(entries[i].Key, entries[i].Value)
	}
	return nil
}

// preload stores keys [0, records) at version 0 through tgt, split over
// par goroutines.
func preload(sp *spec, tgt target, keys *keyTable, par int) error {
	var wg sync.WaitGroup
	errs := make([]error, par)
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vbuf := newValueBuf(sp.valMin)
			for id := uint64(p); id < sp.records; id += uint64(par) {
				if err := tgt.put(keys.key(id, nil), fillValue(vbuf, sp.valMin, id, 0)); err != nil {
					errs[p] = fmt.Errorf("preload key %d: %w", id, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// churnUntilRecycled overwrites the preloaded keys in order until every
// shard has erased as many blocks as it has: by then GC has long been in
// steady state and programs reuse recycled page buffers, so the window
// faults in no fresh memory. It writes the largest value, to get there in
// the fewest requests, and ends with one pass at the workload's own value
// sizes so the window starts from the live set it will keep. (Not "every
// block erased twice": the free pool is a stack, so the blocks at its
// bottom are never handed out again once GC starts.)
func churnUntilRecycled(sp *spec, set *shard.Set, keys *keyTable) error {
	recycled := func() bool {
		for i := 0; i < set.N(); i++ {
			dev := set.Shard(i).Device()
			if dev.FlashStats().Erases < int64(dev.Geometry().TotalBlocks()) {
				return false
			}
		}
		return true
	}
	// pass rewrites every key once, split over the workload's clients.
	pass := func(size func(w int) func() int) error {
		var wg sync.WaitGroup
		errs := make([]error, sp.clients)
		for w := 0; w < sp.clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vbuf, next := newValueBuf(sp.valMax), size(w)
				for id := uint64(w); id < sp.records; id += uint64(sp.clients) {
					if err := set.Store(keys.key(id, nil), fillValue(vbuf, next(), id, 0)); err != nil {
						errs[w] = fmt.Errorf("warm-up key %d: %w", id, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	for n := 0; !recycled(); n++ {
		if n > 10_000 {
			return fmt.Errorf("warm-up: flash not turned over after %d passes over the keys", n)
		}
		if err := pass(func(int) func() int { return func() int { return sp.valMax } }); err != nil {
			return err
		}
	}
	return pass(func(w int) func() int {
		return workload.NewZipfSizes(sp.valMin, sp.valMax, zipfTheta, int64(w)).Next
	})
}

// setupLib opens the workload's set (with a WAL under walDir, if the spec
// has one and walDir is not empty), preloads it and warms it up.
func setupLib(sp *spec, keys *keyTable, walDir string) (*shard.Set, error) {
	set, err := sp.open(walDir)
	if err != nil {
		return nil, err
	}
	if err := preload(sp, libTarget{set}, keys, sp.clients); err != nil {
		set.Close()
		return nil, err
	}
	if sp.churn {
		if err := churnUntilRecycled(sp, set, keys); err != nil {
			set.Close()
			return nil, err
		}
	}
	return set, nil
}

// maxMetaPerGet is the largest number of flash reads any single GET's
// index lookup cost since the last ResetOpStats: the paper's bound is 1.
func maxMetaPerGet(set *shard.Set) int64 {
	st := set.Stats()
	return st.MetaPerGet.Max()
}

// devices lists the set's devices for the traced run's inner boundaries.
func devices(set *shard.Set) []*device.Device {
	out := make([]*device.Device, set.N())
	for i := range out {
		out[i] = set.Shard(i).Device()
	}
	return out
}
