package shard

import (
	"bytes"
	"sync"

	"repro/internal/device"
)

// Iterate enumerates keys sharing prefix across every shard and merges
// the per-shard sorted streams into one sorted result. Routing uses the
// high signature bits while iterator-mode signatures reserve the low 32
// bits for the prefix, so a prefix's keys are spread over all shards but
// stay clustered within each: the fan-out costs one signature-filtered
// bucket scan per shard, executed concurrently.
func (s *Set) Iterate(prefix []byte) ([]device.IterEntry, error) {
	return scatter(len(s.shards), func(i int) ([]device.IterEntry, error) {
		sh := s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		entries, done, err := sh.dev.Iterate(sh.last.Load(), prefix, true)
		if err != nil {
			return nil, err
		}
		sh.last.AdvanceTo(done)
		return entries, nil
	})
}

// scatter runs scan(i) for each of n shards concurrently — shard 0 on the
// caller's goroutine, so a one-shard set spawns nothing — and merges the
// sorted per-shard results. The first error in shard order wins.
func scatter(n int, scan func(i int) ([]device.IterEntry, error)) ([]device.IterEntry, error) {
	per := make([][]device.IterEntry, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i], errs[i] = scan(i)
		}(i)
	}
	per[0], errs[0] = scan(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeSorted(per), nil
}

// mergeSorted merges per-shard key-sorted entry lists. Shards own
// disjoint signature ranges, so keys never repeat across lists.
func mergeSorted(lists [][]device.IterEntry) []device.IterEntry {
	live := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := make([]device.IterEntry, 0, total)
	heads := make([]int, len(live))
	for len(out) < total {
		best := -1
		for i, l := range live {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || bytes.Compare(l[heads[i]].Key, live[best][heads[best]].Key) < 0 {
				best = i
			}
		}
		out = append(out, live[best][heads[best]])
		heads[best]++
	}
	return out
}
