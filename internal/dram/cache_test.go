package dram

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetMissAndHit(t *testing.T) {
	c := New[string](100, nil)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "a", 10)
	v, ok := c.Get(1)
	if !ok || v != "a" {
		t.Fatalf("Get = (%v,%v)", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRatio() != 0.5 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
}

func TestClockSecondChance(t *testing.T) {
	// CLOCK grants referenced entries a second chance instead of keeping
	// an exact LRU order. Walk the hand through a known schedule.
	var evicted []uint64
	c := New[int](30, func(key uint64, _ int, _ int64) { evicted = append(evicted, key) })
	c.Put(1, 0, 10)
	c.Put(2, 0, 10)
	c.Put(3, 0, 10)
	// All bits are set (fresh inserts), so the over-budget insert sweeps
	// once clearing 1..4, wraps, and evicts 1 — the first entry it
	// revisits with a clear bit. The tail (4) swaps into 1's slot.
	c.Put(4, 0, 10)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	// 4's bit was cleared by that sweep and the hand sits on its slot, so
	// the next eviction takes 4 immediately.
	c.Get(2)
	c.Put(5, 0, 10)
	if len(evicted) != 2 || evicted[1] != 4 {
		t.Fatalf("evicted %v, want [1 4]", evicted)
	}
	// Second chance proper: 2 was just touched (bit set), 3 was not. The
	// hand passes 5 (fresh) and 2 (touched), clearing their bits, and
	// evicts 3 — the older-but-cold entry — leaving 2 resident.
	c.Put(6, 0, 10)
	if len(evicted) != 3 || evicted[2] != 3 {
		t.Fatalf("evicted %v, want [1 4 3]", evicted)
	}
	if !c.Contains(2) || !c.Contains(5) || !c.Contains(6) || c.Contains(3) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestPeekIsPure(t *testing.T) {
	c := New[string](100, nil)
	c.Put(1, "a", 10)
	before := c.Stats()
	v, ok := c.Peek(1)
	if !ok || v != "a" {
		t.Fatalf("Peek = (%v,%v)", v, ok)
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("Peek hit on absent key")
	}
	if c.Stats() != before {
		t.Fatalf("Peek changed stats: %+v -> %+v", before, c.Stats())
	}
}

func TestBudgetRespected(t *testing.T) {
	c := New[struct{}](100, nil)
	for k := uint64(0); k < 50; k++ {
		c.Put(k, struct{}{}, 7)
	}
	if c.Used() > c.Budget() {
		t.Fatalf("Used %d > Budget %d", c.Used(), c.Budget())
	}
	if c.Len() != int(c.Used()/7) {
		t.Fatalf("Len %d inconsistent with Used %d", c.Len(), c.Used())
	}
}

func TestOversizedSingletonStays(t *testing.T) {
	c := New[string](10, nil)
	c.Put(1, "big", 100)
	if !c.Contains(1) {
		t.Fatal("oversized singleton was dropped")
	}
	c.Put(2, "next", 5)
	if c.Contains(1) {
		t.Fatal("oversized entry survived a subsequent insert")
	}
	if !c.Contains(2) {
		t.Fatal("new entry missing")
	}
}

func TestPutUpdateAdjustsSize(t *testing.T) {
	c := New[string](100, nil)
	c.Put(1, "a", 10)
	c.Put(1, "b", 30)
	if c.Used() != 30 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d after update", c.Used(), c.Len())
	}
	v, _ := c.Get(1)
	if v != "b" {
		t.Fatal("update did not replace value")
	}
	if c.Stats().Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1 (update is not an insert)", c.Stats().Inserts)
	}
}

func TestRemoveSkipsCallback(t *testing.T) {
	calls := 0
	c := New[string](100, func(uint64, string, int64) { calls++ })
	c.Put(1, "a", 10)
	v, ok := c.Remove(1)
	if !ok || v != "a" {
		t.Fatalf("Remove = (%v,%v)", v, ok)
	}
	if calls != 0 {
		t.Fatal("Remove invoked eviction callback")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Remove left residue")
	}
	if _, ok := c.Remove(1); ok {
		t.Fatal("second Remove succeeded")
	}
}

func TestFlushEvictsAll(t *testing.T) {
	var evicted []uint64
	c := New[struct{}](100, func(key uint64, _ struct{}, _ int64) { evicted = append(evicted, key) })
	c.Put(1, struct{}{}, 10)
	c.Put(2, struct{}{}, 10)
	c.Flush()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Flush left entries")
	}
	if len(evicted) != 2 {
		t.Fatalf("Flush evicted %v", evicted)
	}
	// Ring (insertion) order: 1 then 2 — write-back stays deterministic.
	if evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("Flush order %v, want [1 2]", evicted)
	}
}

func TestResizeShrinks(t *testing.T) {
	c := New[struct{}](100, nil)
	for k := uint64(0); k < 10; k++ {
		c.Put(k, struct{}{}, 10)
	}
	c.Resize(30)
	if c.Used() > 30 {
		t.Fatalf("Used %d after Resize(30)", c.Used())
	}
	if c.Budget() != 30 {
		t.Fatalf("Budget = %d", c.Budget())
	}
}

func TestRangeVisitsAll(t *testing.T) {
	c := New[struct{}](100, nil)
	c.Put(1, struct{}{}, 1)
	c.Put(2, struct{}{}, 1)
	c.Put(3, struct{}{}, 1)
	seen := map[uint64]bool{}
	c.Range(func(key uint64, _ struct{}, _ int64) bool {
		seen[key] = true
		return true
	})
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("Range saw %v", seen)
	}
}

func TestZeroBudgetCache(t *testing.T) {
	c := New[struct{}](0, nil)
	c.Put(1, struct{}{}, 10)
	if !c.Contains(1) {
		t.Fatal("zero-budget cache must still hold the newest entry")
	}
	c.Put(2, struct{}{}, 10)
	if c.Contains(1) {
		t.Fatal("zero-budget cache held two entries")
	}
}

// TestConcurrentReadersAndStats is the -race regression for the shard
// read path's cache usage: Get/Contains/Peek/Stats/ResetStats from many
// goroutines over a fixed-resident key set must be data-race-free and
// must not lose hit counts.
func TestConcurrentReadersAndStats(t *testing.T) {
	c := New[int](1<<20, nil)
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		c.Put(k, int(k), 16)
	}
	c.ResetStats()
	const readers = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := (seed + uint64(i)) % keys
				if v, ok := c.Get(k); !ok || v != int(k) {
					t.Errorf("Get(%d) = (%v,%v)", k, v, ok)
					return
				}
				c.Contains(k)
				c.Peek(k)
				c.Stats() // racing snapshot: must be race-free
			}
		}(uint64(r) * 7)
	}
	wg.Wait()
	if got := c.Stats().Hits; got != readers*opsPer {
		t.Fatalf("Hits = %d, want %d (lost updates)", got, readers*opsPer)
	}
	// A reset racing nothing must fully zero the counters.
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestUsedNeverExceedsBudgetProperty(t *testing.T) {
	f := func(ops []struct {
		Key  uint8
		Size uint8
	}) bool {
		c := New[struct{}](64, nil)
		for _, op := range ops {
			c.Put(uint64(op.Key), struct{}{}, int64(op.Size))
			if c.Len() > 1 && c.Used() > c.Budget() {
				// Multiple entries may never exceed the budget.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccountingInvariantProperty(t *testing.T) {
	// Used must always equal the sum of resident entry sizes, and every
	// ring entry's idx must point back at its slot (swap-remove safety).
	f := func(ops []struct {
		Kind uint8
		Key  uint8
		Size uint8
	}) bool {
		c := New[struct{}](128, nil)
		for _, op := range ops {
			switch op.Kind % 3 {
			case 0:
				c.Put(uint64(op.Key), struct{}{}, int64(op.Size))
			case 1:
				c.Get(uint64(op.Key))
			case 2:
				c.Remove(uint64(op.Key))
			}
			var sum int64
			c.Range(func(_ uint64, _ struct{}, size int64) bool {
				sum += size
				return true
			})
			if sum != c.Used() {
				return false
			}
			for i, e := range c.ring {
				if e.idx != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushResetsClockHand is the regression test for the stale-hand
// bug: the swap-remove unlinks inside Flush only reset the hand when it
// fell off the shrinking ring's end, so it could survive Flush pointing
// mid-ring, and a refilled cache would start its next eviction sweep
// from that phantom position instead of slot 0. A flushed cache must be
// indistinguishable from a fresh one, eviction order included.
func TestFlushResetsClockHand(t *testing.T) {
	run := func(c *Cache[int]) []uint64 {
		var evicted []uint64
		// Refill and force a sweep; record who the hand claims first.
		c.Put(10, 0, 10)
		c.Put(11, 0, 10)
		c.Put(12, 0, 10)
		for _, e := range c.ring {
			e.ref.Store(false) // all cold: eviction order is pure hand order
		}
		saveEvict := c.onEvict
		c.onEvict = func(key uint64, _ int, _ int64) { evicted = append(evicted, key) }
		c.Resize(10) // down-sweep must evict two entries
		c.onEvict = saveEvict
		return evicted
	}

	fresh := New[int](30, nil)
	want := run(fresh)

	flushed := New[int](30, nil)
	// March the hand mid-ring: three inserts then an over-budget fourth
	// evicts one and leaves the hand past slot 0.
	flushed.Put(1, 0, 10)
	flushed.Put(2, 0, 10)
	flushed.Put(3, 0, 10)
	flushed.Put(4, 0, 10)
	flushed.Flush()
	if flushed.hand != 0 {
		t.Fatalf("hand = %d after Flush, want 0", flushed.hand)
	}
	flushed.Resize(30)
	got := run(flushed)

	if len(got) != len(want) {
		t.Fatalf("eviction order after flush %v, fresh cache %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction order after flush %v, fresh cache %v", got, want)
		}
	}
}

// TestPutNeverEvictsItsOwnEntry: the caller of Put goes on to use the
// value it just cached, so the sweep that makes room must claim someone
// else even when it reaches the new entry first with its bit cleared —
// which it does when the hand was left one past the ring's end, or when
// lock-free readers re-set every other entry's bit behind the hand.
func TestPutNeverEvictsItsOwnEntry(t *testing.T) {
	var evicted []uint64
	c := New[int](20, func(key uint64, _ int, _ int64) { evicted = append(evicted, key) })
	c.Put(1, 0, 10)
	c.Put(2, 0, 10)
	c.Put(3, 0, 10) // sweep clears every bit, evicts 1; ring [3 2], hand 0
	c.Get(3)
	c.Resize(10) // second chance for 3, evicts 2 from the last slot: hand == len(ring)
	c.Get(3)
	c.Put(4, 0, 10) // the hand starts on 4, finds 3 referenced, comes back to 4
	if want := []uint64{1, 2, 3}; len(evicted) != 3 || evicted[2] != 3 {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if !c.Contains(4) || c.Len() != 1 || c.Used() != 10 {
		t.Fatalf("entry 4 not resident after its own Put: len %d used %d", c.Len(), c.Used())
	}
}

func TestRecycleReusesEvictedNodes(t *testing.T) {
	// A 2-entry cache fed a new key per Put evicts once per Put; with the
	// owner handing each evicted node back, steady state allocates none.
	handles := map[uint64]Handle[int]{}
	var c *Cache[int]
	c = New[int](20, func(key uint64, _ int, _ int64) {
		c.Recycle(handles[key])
		delete(handles, key)
	})
	key := uint64(0)
	put := func() {
		key++
		c.Put(key, int(key), 10)
		handles[key], _ = c.Handle(key)
	}
	for i := 0; i < 8; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(100, put); allocs != 0 {
		t.Fatalf("Put over a recycling cache allocates %.0f times, want 0", allocs)
	}
	if v, ok := c.Get(key); !ok || v != int(key) {
		t.Fatalf("Get(%d) = (%d,%v) after node reuse", key, v, ok)
	}
	if c.Len() != 2 || c.Used() != 20 {
		t.Fatalf("Len=%d Used=%d, want 2 entries of 10", c.Len(), c.Used())
	}

	// Misuse is ignored, not obeyed: a still-cached entry's node and an
	// already recycled one must not enter the free list.
	live := handles[key]
	c.Recycle(live)
	c.Recycle(Handle[int]{})
	gone, _ := c.Remove(key - 1)
	old := handles[key-1]
	c.Recycle(old)
	c.Recycle(old)
	c.Put(100, 100, 1)
	c.Put(101, 101, 1)
	if v, ok := c.Get(key); !ok || v != int(key) {
		t.Fatalf("recycling a cached entry's handle corrupted it: (%d,%v)", v, ok)
	}
	for _, k := range []uint64{100, 101} {
		if v, ok := c.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = (%d,%v): a node was handed out twice (removed value %d)", k, v, ok, gone)
		}
	}
}

// TestVictimPredictsEviction drives two caches through the same seeded
// Put/Get schedule, asking one of them for its Victim before every Put.
// The answer must be the first entry that Put then evicts (or none when
// it evicts nothing), and asking must change nothing: both caches evict
// the same keys in the same order.
func TestVictimPredictsEviction(t *testing.T) {
	var asked, quiet []uint64
	c := New[uint64](50, func(key uint64, _ uint64, _ int64) { asked = append(asked, key) })
	twin := New[uint64](50, func(key uint64, _ uint64, _ int64) { quiet = append(quiet, key) })
	if _, ok := c.Victim(10); ok {
		t.Fatal("empty cache reported a victim")
	}
	state := uint64(7)
	for i := 0; i < 2000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		key := state >> 60 // 16 keys behind a 5-entry budget
		if state>>59&1 == 0 {
			c.Get(key)
			twin.Get(key)
			continue
		}
		want, evicts := c.Victim(10)
		if c.Contains(key) {
			evicts = false // an update never evicts: same size, same budget
		}
		before := len(asked)
		c.Put(key, key, 10)
		twin.Put(key, key, 10)
		switch {
		case evicts && (len(asked) == before || asked[before] != want):
			t.Fatalf("op %d: Victim said %d, Put evicted %v", i, want, asked[before:])
		case !evicts && len(asked) != before:
			t.Fatalf("op %d: Victim said none, Put evicted %v", i, asked[before:])
		}
	}
	if len(asked) == 0 || !slices.Equal(asked, quiet) {
		t.Fatalf("asking for victims changed evictions: %d vs %d", len(asked), len(quiet))
	}
}
