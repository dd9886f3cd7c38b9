// Package hopscotch implements the fixed-capacity hopscotch hash table
// that RHIK uses for each record-layer index page (§IV-A1). A table holds
// exactly R records of the form {key signature, physical page address,
// hopinfo}; R is chosen so the serialized table fills one flash page
// (Eq. 1). Collisions are resolved by hopscotch displacement within a hop
// range of H slots (32 by default). When no slot can be freed within the
// hop range the insert fails with ErrNoSlot — the paper's "uncorrectable
// error" whose rate Fig. 8 studies.
package hopscotch

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/hash"
)

// SlotSize is the serialized size of one record in the default 64-bit
// signature mode: an 8-byte key signature, a 5-byte physical page address,
// and a 4-byte hopinfo bitmap — the kh + ppa + hi of Eq. 1. Wide (128-bit
// signature) tables use SlotSizeWide.
const SlotSize = 8 + 5 + 4

// SlotSizeWide is the serialized slot size with 128-bit key signatures,
// the paper's proposed higher-resolution alternative (§IV-A3).
const SlotSizeWide = 16 + 5 + 4

// MaxHopRange is the widest supported hop range; the hopinfo bitmap is 32
// bits, one per slot in the neighborhood.
const MaxHopRange = 32

// emptyPPA marks an unoccupied slot, in memory and on flash. Physical
// page addresses are 40-bit and the emulated devices stay far below
// 2^40-1 pages.
const emptyPPA = 1<<40 - 1

// ErrNoSlot is returned by Put when hopscotch displacement cannot free a
// slot within the hop range of the key's home bucket. The caller (RHIK)
// surfaces this as an index collision abort.
var ErrNoSlot = errors.New("hopscotch: no free slot within hop range")

// ErrBadPPA is returned by Put for an address the 40-bit record field
// cannot hold: anything wider, and 2^40-1 itself, which marks a free slot.
var ErrBadPPA = errors.New("hopscotch: address does not fit the 40-bit record field")

// Table is a fixed-capacity hopscotch hash table mapping 64-bit key
// signatures to physical page addresses. Mutations are not safe for
// concurrent use — RHIK serializes them under the shard write lock —
// but the table carries a seqlock version counter so OPTIMISTIC readers
// may race mutators: a reader snapshots the version (SeqSnapshot),
// probes with GetOptimistic, and re-checks (SeqValidate); a mismatch
// means the read overlapped a write and must be retried or escalated.
// The counter is odd for the duration of every mutation and bumped to
// the next even value when it completes; Invalidate parks it odd
// permanently when the table leaves reader reachability (eviction,
// migration, pool recycling), so stale probes can never validate.
//
// Two kinds of mutation exist. Put and Delete run on tables optimistic
// readers can reach, so every slot store they make is atomic. Reset and
// DecodeFrom rewrite the whole table with plain bulk stores and may run
// ONLY while no reader can reach it: on a table fresh from New, or one
// that was unpublished, Invalidated and then held back until every
// reader that could still alias it has finished (core's retireEntry →
// epoch.Domain). The table becomes reachable again only through an
// atomic pointer store made after the bracket closes, which orders the
// bulk stores before any reader's loads.
type Table struct {
	seq  atomic.Uint64
	sigs []uint64
	his  []uint64 // upper signature halves; nil in 64-bit mode
	ppas []uint64 // emptyPPA marks a free slot, in memory as on flash
	hops []uint32
	n    int
	hop  int
}

// beginWrite makes the sequence odd for the duration of a mutation.
// The formula lands on an odd value whether the current value is even
// (normal bracket) or already odd (mutating a poisoned table, e.g.
// Reset while pooled), so brackets compose with Invalidate.
func (t *Table) beginWrite() {
	v := t.seq.Load()
	t.seq.Store(v + 1 + (v & 1))
}

// endWrite publishes the mutation by moving the sequence to the next
// even value.
func (t *Table) endWrite() { t.seq.Add(1) }

// Invalidate permanently poisons the table's version counter (leaves it
// odd) so any in-flight optimistic read fails validation. Call it
// whenever the table leaves the reader-reachable directory: cache
// eviction, migration source teardown, resize teardown. The next full
// mutation bracket (Reset/DecodeFrom on pool reuse) revives the counter.
func (t *Table) Invalidate() { t.beginWrite() }

// SeqSnapshot returns the current version counter and whether the table
// is stable (no mutation in flight, not invalidated). Optimistic
// readers call it before probing; !ok means retry or escalate now.
func (t *Table) SeqSnapshot() (uint64, bool) {
	v := t.seq.Load()
	return v, v&1 == 0
}

// SeqValidate reports whether the version counter still equals the
// earlier snapshot v — i.e. no mutation started since. Readers call it
// after probing (and again after copying any dependent data out).
func (t *Table) SeqValidate(v uint64) bool { return t.seq.Load() == v }

// New returns an empty 64-bit-signature table with the given slot
// capacity and hop range. Hop ranges larger than MaxHopRange or the
// capacity are clamped.
func New(capacity, hopRange int) *Table {
	return newTable(capacity, hopRange, false)
}

// NewWide returns an empty table storing 128-bit key signatures. Its
// slots are larger (SlotSizeWide), so a page-sized table holds fewer
// records — the capacity/false-positive trade-off Eq. 1 exposes.
func NewWide(capacity, hopRange int) *Table {
	return newTable(capacity, hopRange, true)
}

func newTable(capacity, hopRange int, wide bool) *Table {
	if capacity < 1 {
		panic(fmt.Sprintf("hopscotch: capacity %d < 1", capacity))
	}
	if hopRange < 1 {
		hopRange = 1
	}
	if hopRange > MaxHopRange {
		hopRange = MaxHopRange
	}
	if hopRange > capacity {
		hopRange = capacity
	}
	t := &Table{
		sigs: make([]uint64, capacity),
		ppas: make([]uint64, capacity),
		hops: make([]uint32, capacity),
		hop:  hopRange,
	}
	if wide {
		t.his = make([]uint64, capacity)
	}
	fillEmpty(t.ppas)
	return t
}

func fillEmpty(ppas []uint64) {
	for i := range ppas {
		ppas[i] = emptyPPA
	}
}

// Wide reports whether the table stores 128-bit signatures.
func (t *Table) Wide() bool { return t.his != nil }

// SlotSizeOf reports the serialized slot size of this table.
func (t *Table) SlotSizeOf() int {
	if t.Wide() {
		return SlotSizeWide
	}
	return SlotSize
}

// Len reports the number of stored records.
func (t *Table) Len() int { return t.n }

// Cap reports the slot capacity R.
func (t *Table) Cap() int { return len(t.sigs) }

// HopRange reports the hop range H.
func (t *Table) HopRange() int { return t.hop }

// Occupancy reports Len/Cap in [0,1].
func (t *Table) Occupancy() float64 { return float64(t.n) / float64(len(t.sigs)) }

func (t *Table) home(sig uint64) int {
	// The record layer's "fixed hash function": a full 64-bit remix so the
	// in-table position is independent of the directory's low-bit
	// selection of the table itself.
	return int(hash.Mix64(sig) % uint64(len(t.sigs)))
}

func (t *Table) dist(from, to int) int {
	d := to - from
	if d < 0 {
		d += len(t.sigs)
	}
	return d
}

func (t *Table) hiOf(slot int) uint64 {
	if t.his == nil {
		return 0
	}
	return t.his[slot]
}

func (t *Table) used(slot int) bool { return t.ppas[slot] != emptyPPA }

func (t *Table) match(slot int, lo, hi uint64) bool {
	return t.used(slot) && t.sigs[slot] == lo && t.hiOf(slot) == hi
}

// setSlot and clearSlot are the writer's slot stores on a reachable
// table; an empty slot is always {0, 0, emptyPPA}, so the page image is
// a function of the table's records and their positions alone.
func (t *Table) setSlot(slot int, lo, hi, ppa uint64) {
	atomic.StoreUint64(&t.sigs[slot], lo)
	if t.his != nil {
		atomic.StoreUint64(&t.his[slot], hi)
	}
	atomic.StoreUint64(&t.ppas[slot], ppa)
}

func (t *Table) clearSlot(slot int) { t.setSlot(slot, 0, 0, emptyPPA) }

// Get returns the physical page address stored for sig.
func (t *Table) Get(sig uint64) (ppa uint64, ok bool) { return t.GetWide(sig, 0) }

// GetWide looks up a record by its full (lo, hi) signature. In 64-bit
// tables hi must be 0.
func (t *Table) GetWide(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	for hop := t.hops[home]; hop != 0; hop &= hop - 1 {
		i := bits.TrailingZeros32(hop)
		slot := (home + i) % len(t.sigs)
		if t.match(slot, lo, hi) {
			return t.ppas[slot], true
		}
	}
	return 0, false
}

// GetOptimistic is GetWide for seqlock readers racing a mutator: every
// slot-array access is an atomic load, and it never touches the
// plain-written n field (a set hop bit implies the slot was occupied at
// some even sequence; torn states are rejected by the caller's
// SeqValidate). The returned value is only meaningful if the
// surrounding SeqSnapshot/SeqValidate pair passes.
func (t *Table) GetOptimistic(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	for hop := atomic.LoadUint32(&t.hops[home]); hop != 0; hop &= hop - 1 {
		i := bits.TrailingZeros32(hop)
		slot := (home + i) % len(t.sigs)
		if atomic.LoadUint64(&t.sigs[slot]) == lo && t.hiOptimistic(slot) == hi {
			return atomic.LoadUint64(&t.ppas[slot]), true
		}
	}
	return 0, false
}

func (t *Table) hiOptimistic(slot int) uint64 {
	if t.his == nil {
		return 0
	}
	return atomic.LoadUint64(&t.his[slot])
}

// Put inserts or updates the record for sig. It reports whether an
// existing record was replaced. ErrNoSlot means the neighborhood is
// saturated and the operation must be aborted.
func (t *Table) Put(sig, ppa uint64) (replaced bool, err error) {
	return t.PutWide(sig, 0, ppa)
}

// PutWide inserts or updates a record keyed by its full (lo, hi)
// signature.
func (t *Table) PutWide(lo, hi, ppa uint64) (replaced bool, err error) {
	if ppa >= emptyPPA {
		return false, ErrBadPPA
	}
	home := t.home(lo)
	for hop := t.hops[home]; hop != 0; hop &= hop - 1 {
		i := bits.TrailingZeros32(hop)
		slot := (home + i) % len(t.sigs)
		if t.match(slot, lo, hi) {
			t.beginWrite()
			atomic.StoreUint64(&t.ppas[slot], ppa)
			t.endWrite()
			return true, nil
		}
	}
	if t.n == len(t.sigs) {
		return false, ErrNoSlot
	}

	// Linear-probe for the nearest free slot.
	free := -1
	for d := 0; d < len(t.sigs); d++ {
		slot := (home + d) % len(t.sigs)
		if !t.used(slot) {
			free = slot
			break
		}
	}
	if free < 0 {
		return false, ErrNoSlot
	}

	t.beginWrite()
	// Hop the free slot backward until it is within range of home.
	for t.dist(home, free) >= t.hop {
		moved := false
		for j := t.hop - 1; j >= 1; j-- {
			cand := (free - j + len(t.sigs)) % len(t.sigs)
			if !t.used(cand) {
				continue
			}
			candHome := t.home(t.sigs[cand])
			if t.dist(candHome, free) >= t.hop {
				continue
			}
			// Move the candidate record into the free slot.
			t.setSlot(free, t.sigs[cand], t.hiOf(cand), t.ppas[cand])
			t.clearSlot(cand)
			atomic.StoreUint32(&t.hops[candHome],
				t.hops[candHome]&^(1<<uint(t.dist(candHome, cand)))|1<<uint(t.dist(candHome, free)))
			free = cand
			moved = true
			break
		}
		if !moved {
			t.endWrite()
			return false, ErrNoSlot
		}
	}

	t.setSlot(free, lo, hi, ppa)
	atomic.StoreUint32(&t.hops[home], t.hops[home]|1<<uint(t.dist(home, free)))
	t.n++
	t.endWrite()
	return false, nil
}

// Delete removes the record for sig, returning its physical page address.
func (t *Table) Delete(sig uint64) (ppa uint64, ok bool) { return t.DeleteWide(sig, 0) }

// DeleteWide removes a record keyed by its full (lo, hi) signature.
func (t *Table) DeleteWide(lo, hi uint64) (ppa uint64, ok bool) {
	home := t.home(lo)
	for hop := t.hops[home]; hop != 0; hop &= hop - 1 {
		i := bits.TrailingZeros32(hop)
		slot := (home + i) % len(t.sigs)
		if t.match(slot, lo, hi) {
			ppa = t.ppas[slot]
			t.beginWrite()
			t.clearSlot(slot)
			atomic.StoreUint32(&t.hops[home], t.hops[home]&^(1<<uint(i)))
			t.n--
			t.endWrite()
			return ppa, true
		}
	}
	return 0, false
}

// Range calls f for every stored record until f returns false. Iteration
// order is slot order, not insertion order.
func (t *Table) Range(f func(sig, ppa uint64) bool) {
	for i, ppa := range t.ppas {
		if ppa != emptyPPA && !f(t.sigs[i], ppa) {
			return
		}
	}
}

// RangeWide is Range with the full (lo, hi) signature exposed.
func (t *Table) RangeWide(f func(lo, hi, ppa uint64) bool) {
	for i, ppa := range t.ppas {
		if ppa != emptyPPA && !f(t.sigs[i], t.hiOf(i), ppa) {
			return
		}
	}
}

// AppendLow32 appends to dst the address of every stored record whose
// signature's low 32 bits equal low, in slot order. It is a filter over
// the signature column alone: the address column is read only on a
// match, which is also what keeps a free slot — signature 0 — out of the
// result when low is 0.
func (t *Table) AppendLow32(dst []uint64, low uint32) []uint64 {
	ppas := t.ppas[:len(t.sigs)]
	for i, sig := range t.sigs {
		if uint32(sig) == low && ppas[i] != emptyPPA {
			dst = append(dst, ppas[i])
		}
	}
	return dst
}

// Reset empties the table in place with plain bulk stores, so it may run
// only while no optimistic reader can reach the table (see Table). It
// runs a full write bracket, so it also revives an Invalidate-poisoned
// counter on pool reuse.
func (t *Table) Reset() {
	t.beginWrite()
	clear(t.sigs)
	clear(t.his)
	clear(t.hops)
	fillEmpty(t.ppas)
	t.n = 0
	t.endWrite()
}
