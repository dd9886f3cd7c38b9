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

// Node is one cache entry's bookkeeping: its key, its size, its slot in
// the CLOCK ring and its reference bit. A cached value embeds it, so the
// value and its ring entry are one object with one lifetime: the owner
// allocates and pools it, and the cache only links and unlinks it. A
// value is in at most one Cache at a time, and its owner may reuse it once
// the cache has let go of it — evicted, removed, or flushed.
type Node struct {
	key  uint64
	size int64
	idx  int         // position in the clock ring while cached
	ref  atomic.Bool // second-chance bit, set on every hit
}

func (n *Node) node() *Node { return n }

// Referenced reports the node's reference bit. Safe from any goroutine.
func (n *Node) Referenced() bool { return n.ref.Load() }

// Value is what a Cache holds: a pointer to a type that embeds Node.
type Value interface{ node() *Node }

// EvictFunc is invoked when an entry is evicted to make room. Write-back
// owners flush dirty state to flash here.
type EvictFunc[V Value] func(key uint64, value V, size int64)

// Cache is a CLOCK cache bounded by a byte budget rather than an entry
// count. The value type is fixed at construction so hits return without
// interface boxing. A single entry larger than the whole budget is still
// cached (and evicted on the next insert), so a minimally-provisioned
// cache remains functional.
//
// Concurrency: any number of goroutines may call Get/Contains/Peek/
// TouchHit/Stats/ResetStats concurrently with each other. Mutating calls
// (Put, Remove, Flush, Resize) must be exclusive with everything else — in
// the device they only run under the shard write lock.
type Cache[V Value] struct {
	budget  int64
	used    int64
	ring    []V // clock ring; hand scans for a clear ref bit
	hand    int
	byKey   map[uint64]V
	onEvict EvictFunc[V]
	mods    uint64 // counts changes to membership, hand and budget

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	inserts   atomic.Int64
}

// New returns a cache with the given byte budget. onEvict may be nil.
func New[V Value](budget int64, onEvict EvictFunc[V]) *Cache[V] {
	return &Cache[V]{
		budget:  max(budget, 0),
		byKey:   make(map[uint64]V),
		onEvict: onEvict,
	}
}

// Get returns the cached value for key, setting its reference bit.
// Every call counts as a hit or a miss. Safe for concurrent readers.
func (c *Cache[V]) Get(key uint64) (V, bool) {
	v, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return v, false
	}
	c.hits.Add(1)
	v.node().ref.Store(true)
	return v, true
}

// Contains reports whether key is cached without affecting recency or
// hit/miss accounting. Safe for concurrent readers.
func (c *Cache[V]) Contains(key uint64) bool {
	_, ok := c.byKey[key]
	return ok
}

// Peek returns the cached value for key without affecting recency or
// hit/miss accounting — a pure read. Safe for concurrent readers.
func (c *Cache[V]) Peek(key uint64) (V, bool) {
	v, ok := c.byKey[key]
	return v, ok
}

// TouchHit applies the exact side effects of a successful Get — one hit
// count, reference bit set — to a value found without the key map. Safe
// from any goroutine; optimistic readers call it after their version
// check passes so CLOCK recency and hit accounting match the locked path.
// Touching a value that has since been evicted flips a bit nobody
// consults, which is harmless.
func (c *Cache[V]) TouchHit(v V) {
	c.hits.Add(1)
	v.node().ref.Store(true)
}

// TouchMiss counts one miss, the side effect of a Get that found
// nothing, for a lookup that skipped the key map. Safe from any
// goroutine.
func (c *Cache[V]) TouchMiss() { c.misses.Add(1) }

// Put inserts or updates key with the given value and size, evicting
// other entries as needed to respect the budget: the caller goes on to
// use what it just cached, so the sweep never claims the touched entry
// itself, whatever the hand and concurrent readers did to its reference
// bit. A value that replaces another under the same key takes over its
// ring slot; the replaced one is dropped without the eviction callback.
func (c *Cache[V]) Put(key uint64, v V, size int64) {
	n := v.node()
	if old, ok := c.byKey[key]; ok {
		o := old.node()
		c.used -= o.size
		n.idx = o.idx
		c.ring[n.idx] = v
	} else {
		n.idx = len(c.ring)
		c.ring = append(c.ring, v)
		c.inserts.Add(1)
	}
	c.byKey[key] = v
	n.key, n.size = key, max(size, 0)
	n.ref.Store(true)
	c.used += n.size
	c.mods++
	c.evictToBudget(n)
}

// Victim reports the value a Put of a new key of the given size would
// evict first, and evicts false when that Put fits the budget and
// evicts nothing. It is what the next eviction will claim, but it
// claims nothing itself: the hand stays put and no reference bit is
// cleared. The victim is the first entry from the hand whose reference
// bit is clear; held reports that none was, so the eviction's first
// sweep will clear them all and come back to the hand's entry, v. Bits
// set by readers after the call can then not change v; otherwise they
// change it only if they set v's own bit. Writer-side only.
func (c *Cache[V]) Victim(size int64) (v V, evicts, held bool) {
	if c.used+size <= c.budget || len(c.ring) == 0 {
		return v, false, false
	}
	v, held = c.peekVictim()
	return v, true, held
}

// peekVictim returns the entry the next eviction would claim — the first
// clear-ref entry from the hand — without granting second chances or
// moving the hand. Falls back to the hand entry when every ref bit is
// set (the real eviction would clear them and come back around), and
// then reports held. The ring must not be empty.
func (c *Cache[V]) peekVictim() (V, bool) {
	n := len(c.ring)
	h := c.hand
	for i := 0; i < n; i++ {
		if h >= n {
			h = 0
		}
		if !c.ring[h].node().ref.Load() {
			return c.ring[h], false
		}
		h++
	}
	if c.hand < n {
		return c.ring[c.hand], true
	}
	return c.ring[0], true
}

// evictToBudget removes entries until the budget holds, always keeping at
// least one entry so an over-budget singleton still functions, and never
// removing keep (nil: no entry is exempt).
func (c *Cache[V]) evictToBudget(keep *Node) {
	for c.used > c.budget && len(c.ring) > 1 {
		c.evictOne(keep)
	}
}

// evictOne advances the clock hand to the first entry other than keep
// whose reference bit is clear, granting each referenced entry a second
// chance along the way, and evicts it. The ring holds at least two
// entries, so it terminates within two sweeps: the first pass clears bits.
func (c *Cache[V]) evictOne(keep *Node) {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		v := c.ring[c.hand]
		n := v.node()
		if n.ref.Swap(false) || n == keep {
			c.hand++
			continue
		}
		c.evict(v)
		return
	}
}

// evict unlinks v, counts the eviction and hands v to the callback.
func (c *Cache[V]) evict(v V) {
	n := v.node()
	c.unlink(n)
	c.evictions.Add(1)
	if c.onEvict != nil {
		c.onEvict(n.key, v, n.size)
	}
}

// unlink removes n from the ring (swap-remove; the displaced tail entry
// inherits n's slot) and the key map, and releases its budget share.
func (c *Cache[V]) unlink(n *Node) {
	last := len(c.ring) - 1
	tail := c.ring[last]
	c.ring[n.idx] = tail
	tail.node().idx = n.idx
	var zero V
	c.ring[last] = zero
	c.ring = c.ring[:last]
	if c.hand > last {
		c.hand = 0
	}
	delete(c.byKey, n.key)
	c.used -= n.size
	c.mods++
}

// Remove drops key from the cache without invoking the eviction callback
// (the caller already owns the value). It returns the removed value.
func (c *Cache[V]) Remove(key uint64) (V, bool) {
	v, ok := c.byKey[key]
	if ok {
		c.unlink(v.node())
	}
	return v, ok
}

// Flush evicts every entry in ring order, invoking the eviction callback
// for each. Used at checkpoints to force dirty state to flash.
func (c *Cache[V]) Flush() {
	for _, v := range append([]V(nil), c.ring...) {
		c.evict(v)
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
	for _, v := range c.ring {
		if n := v.node(); !f(n.key, v, n.size) {
			return
		}
	}
}

// Resize changes the byte budget, evicting as needed.
func (c *Cache[V]) Resize(budget int64) {
	c.budget = max(budget, 0)
	c.mods++
	c.evictToBudget(nil)
}

// Mods counts the calls that changed what Victim can report: every
// insert, removal, eviction and budget change. Reference bits that
// readers set between two such calls can only move the victim later in
// the sweep. Writer-side.
func (c *Cache[V]) Mods() uint64 { return c.mods }

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
