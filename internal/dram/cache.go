// Package dram models the KVSSD's integrated DRAM as a byte-budget cache
// for index pages. The FTL cache budget (e.g. the 10 MB budget in the
// paper's Fig. 5 setup) bounds the total size of cached entries; anything
// beyond the budget spills to flash, which is what makes index size matter
// for performance. Eviction invokes a callback so write-back owners can
// flush dirty entries to flash first.
//
// Eviction is CLOCK (second-chance) rather than LRU: recency is a per-entry
// reference bit instead of a move-to-front list, so a cache hit only flips
// an atomic bit and never mutates shared structure. That makes Get,
// Contains, Stats, and ResetStats safe to call from concurrent readers
// (the shard read path), while Put, Remove, Flush, and Resize still
// require the caller's exclusive (write) lock.
package dram

import "sync/atomic"

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Inserts   int64
	// AdmissionRejects is always 0: the cache admits every Put. The field
	// stays because the STATS wire reply is positional and the benchmark
	// module's counters still read it.
	AdmissionRejects int64
}

// MissRatio reports misses / (hits + misses), or 0 when unused.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type entry[V any] struct {
	key   uint64
	value V
	size  int64
	idx   int         // position in the clock ring, or idxUnlinked/idxPooled
	ref   atomic.Bool // second-chance bit, set on every hit
}

// EvictFunc is invoked when an entry is evicted to make room. Write-back
// owners flush dirty state to flash here.
type EvictFunc[V any] func(key uint64, value V, size int64)

// Cache is a CLOCK cache bounded by a byte budget rather than an entry
// count. The value type is fixed at construction so hits return without
// interface boxing. A single entry larger than the whole budget is still
// cached (and evicted on the next insert), so a minimally-provisioned
// cache remains functional.
//
// Concurrency: any number of goroutines may call Get/Contains/Stats/
// ResetStats concurrently with each other. Mutating calls (Put, Remove,
// Flush, Resize) must be exclusive with everything else — in the device
// they only run under the shard write lock.
type Cache[V any] struct {
	budget  int64
	used    int64
	ring    []*entry[V] // clock ring; hand scans for a clear ref bit
	hand    int
	byKey   map[uint64]*entry[V]
	free    []*entry[V] // unlinked nodes handed back through Recycle
	onEvict EvictFunc[V]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	inserts   atomic.Int64
}

// New returns a cache with the given byte budget. onEvict may be nil.
func New[V any](budget int64, onEvict EvictFunc[V]) *Cache[V] {
	if budget < 0 {
		budget = 0
	}
	return &Cache[V]{
		budget:  budget,
		byKey:   make(map[uint64]*entry[V]),
		onEvict: onEvict,
	}
}

// Get returns the cached value for key, setting its reference bit.
// Every call counts as a hit or a miss. Safe for concurrent readers.
func (c *Cache[V]) Get(key uint64) (V, bool) {
	e, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	e.ref.Store(true)
	return e.value, true
}

// Contains reports whether key is cached without affecting recency or
// hit/miss accounting. Safe for concurrent readers.
func (c *Cache[V]) Contains(key uint64) bool {
	_, ok := c.byKey[key]
	return ok
}

// Peek returns the cached value for key without affecting recency or
// hit/miss accounting — a pure read, used by the pre-flight checks that
// decide whether a lookup may run under the shard read lock. Safe for
// concurrent readers.
func (c *Cache[V]) Peek(key uint64) (V, bool) {
	e, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Handle is a stable reference to a cache entry, captured under the
// writer lock (Handle method) and redeemable later from lock-free
// readers via TouchHit. It stays valid across evictions in the weak
// sense optimistic readers need: touching an already-evicted entry
// flips a ref bit nobody consults, which is harmless.
type Handle[V any] struct {
	e *entry[V]
}

// Handle captures a touch handle for key. Writer-side (it reads the key
// map); callers publish the handle through their own synchronized
// structure for readers to redeem.
func (c *Cache[V]) Handle(key uint64) (Handle[V], bool) {
	e, ok := c.byKey[key]
	if !ok {
		return Handle[V]{}, false
	}
	return Handle[V]{e: e}, true
}

// TouchHit applies the exact side effects of a successful Get — one hit
// count, reference bit set — through a previously captured Handle,
// without reading the key map. Safe from any goroutine; optimistic
// readers call it after their version check passes so CLOCK recency and
// hit accounting match the locked path.
func (c *Cache[V]) TouchHit(h Handle[V]) {
	c.hits.Add(1)
	h.e.ref.Store(true)
}

// Put inserts or updates key with the given value and size, evicting
// other entries as needed to respect the budget: the caller goes on to
// use what it just cached, so the sweep never claims the touched entry
// itself, whatever the hand and concurrent readers did to its reference
// bit.
func (c *Cache[V]) Put(key uint64, value V, size int64) {
	if size < 0 {
		size = 0
	}
	e, ok := c.byKey[key]
	if ok {
		c.used += size - e.size
		e.value = value
		e.size = size
		e.ref.Store(true)
	} else {
		e = c.newEntry()
		e.key, e.value, e.size, e.idx = key, value, size, len(c.ring)
		e.ref.Store(true)
		c.ring = append(c.ring, e)
		c.byKey[key] = e
		c.used += size
		c.inserts.Add(1)
	}
	c.evictToBudget(e)
}

func (c *Cache[V]) newEntry() *entry[V] {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return new(entry[V])
}

// Recycle hands the node behind h back for a later Put to reuse, so a
// cache that evicts on every miss stops allocating one node per miss.
// The entry must already be evicted or removed, and the caller must
// know that no reader can still redeem h through TouchHit: the node's
// key and reference bit are about to describe some other entry. The
// zero Handle and handles of still-cached entries are ignored; a handle
// from another Cache[V] is fine, since a node belongs to no cache once
// unlinked. Writer-side only.
func (c *Cache[V]) Recycle(h Handle[V]) {
	if h.e == nil || h.e.idx != idxUnlinked || len(c.free) >= maxFreeEntries {
		return
	}
	var zero V
	h.e.value = zero
	h.e.idx = idxPooled
	c.free = append(c.free, h.e)
}

// An entry's idx is its ring position while cached, then one of these.
const (
	idxUnlinked = -1 // evicted or removed; Handles may still be redeemed
	idxPooled   = -2 // handed back through Recycle
)

// maxFreeEntries bounds the recycled-node list; owners that evict one
// entry per insert never hold more than a few.
const maxFreeEntries = 64

// Victim reports the value a Put of a new key of the given size would
// evict first, and false when that Put fits the budget and evicts
// nothing. It is what the next eviction will claim, but it claims
// nothing itself: the hand stays put and no reference bit is cleared.
// Writer-side only.
func (c *Cache[V]) Victim(size int64) (V, bool) {
	if c.used+size <= c.budget || len(c.ring) == 0 {
		var zero V
		return zero, false
	}
	return c.peekVictim().value, true
}

// peekVictim returns the entry the next eviction would claim — the first
// clear-ref entry from the hand — without granting second chances or
// moving the hand. Falls back to the hand entry when every ref bit is
// set (the real eviction would clear them and come back around). The
// ring must not be empty.
func (c *Cache[V]) peekVictim() *entry[V] {
	n := len(c.ring)
	h := c.hand
	for i := 0; i < n; i++ {
		if h >= n {
			h = 0
		}
		if !c.ring[h].ref.Load() {
			return c.ring[h]
		}
		h++
	}
	if c.hand < n {
		return c.ring[c.hand]
	}
	return c.ring[0]
}

// evictToBudget removes entries until the budget holds, always keeping at
// least one entry so an over-budget singleton still functions, and never
// removing keep (nil: no entry is exempt).
func (c *Cache[V]) evictToBudget(keep *entry[V]) {
	for c.used > c.budget && len(c.ring) > 1 {
		c.evictOne(keep)
	}
}

// evictOne advances the clock hand to the first entry other than keep
// whose reference bit is clear, granting each referenced entry a second
// chance along the way, and evicts it. The ring holds at least two
// entries, so it terminates within two sweeps: the first pass clears bits.
func (c *Cache[V]) evictOne(keep *entry[V]) {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref.Swap(false) || e == keep {
			c.hand++
			continue
		}
		c.unlink(e)
		c.evictions.Add(1)
		if c.onEvict != nil {
			c.onEvict(e.key, e.value, e.size)
		}
		return
	}
}

// unlink removes e from the ring (swap-remove; the displaced tail entry
// inherits e's slot) and the key map, and releases its budget share.
func (c *Cache[V]) unlink(e *entry[V]) {
	last := len(c.ring) - 1
	tail := c.ring[last]
	c.ring[e.idx] = tail
	tail.idx = e.idx
	c.ring[last] = nil
	c.ring = c.ring[:last]
	if c.hand > last {
		c.hand = 0
	}
	delete(c.byKey, e.key)
	c.used -= e.size
	e.idx = idxUnlinked
}

// Remove drops key from the cache without invoking the eviction callback
// (the caller already owns the value). It returns the removed value.
func (c *Cache[V]) Remove(key uint64) (V, bool) {
	e, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	return e.value, true
}

// Flush evicts every entry in ring order, invoking the eviction callback
// for each. Used at checkpoints to force dirty state to flash.
func (c *Cache[V]) Flush() {
	snap := append([]*entry[V](nil), c.ring...)
	for _, e := range snap {
		c.unlink(e)
		c.evictions.Add(1)
		if c.onEvict != nil {
			c.onEvict(e.key, e.value, e.size)
		}
	}
	// The swap-remove unlinks only reset the hand when it fell off the
	// shrinking ring's end, so it could survive Flush pointing mid-ring —
	// and a later Resize down-sweep would start its eviction scan from
	// that stale position. An empty ring has exactly one valid hand.
	c.hand = 0
}

// Range calls f for each cached entry, stopping if f returns false. The
// order is the clock-ring order, which is not a recency order. It does
// not affect recency. f must not mutate the cache.
func (c *Cache[V]) Range(f func(key uint64, value V, size int64) bool) {
	for _, e := range c.ring {
		if !f(e.key, e.value, e.size) {
			return
		}
	}
}

// Resize changes the byte budget, evicting as needed.
func (c *Cache[V]) Resize(budget int64) {
	if budget < 0 {
		budget = 0
	}
	c.budget = budget
	c.evictToBudget(nil)
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int { return len(c.ring) }

// Used reports the summed size of cached entries.
func (c *Cache[V]) Used() int64 { return c.used }

// Budget reports the configured byte budget.
func (c *Cache[V]) Budget() int64 { return c.budget }

// Stats returns a snapshot of the effectiveness counters. Safe for
// concurrent readers; the four counters are loaded independently, so the
// snapshot is per-counter-atomic rather than a single consistent cut.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Inserts:   c.inserts.Load(),
	}
}

// ResetStats zeroes the counters (used between experiment phases). Safe
// for concurrent readers; reads racing the reset land on either side.
func (c *Cache[V]) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.inserts.Store(0)
}
