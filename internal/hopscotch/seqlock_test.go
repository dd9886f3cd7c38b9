package hopscotch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sigForID builds a signature whose identity is recoverable from the
// PPA stored under it, so a torn read (signature from one record, PPA
// from another) is detectable.
func sigForID(id uint64) (lo, ppa uint64) {
	return id*0x9e3779b97f4a7c15 + 1, id
}

// TestSeqlockDeterministic pins the version-counter protocol without
// goroutines: snapshots taken before a mutation must fail validation
// after it, invalidated tables must never produce a stable snapshot,
// and a full write bracket must revive a poisoned counter.
func TestSeqlockDeterministic(t *testing.T) {
	tab := New(64, 8)

	v, ok := tab.SeqSnapshot()
	if !ok {
		t.Fatal("fresh table is not stable")
	}
	if !tab.SeqValidate(v) {
		t.Fatal("validation failed with no intervening mutation")
	}

	lo, ppa := sigForID(7)
	if _, err := tab.Put(lo, ppa); err != nil {
		t.Fatal(err)
	}
	if tab.SeqValidate(v) {
		t.Fatal("snapshot survived a Put")
	}

	v2, ok := tab.SeqSnapshot()
	if !ok {
		t.Fatal("table not stable after Put completed")
	}
	if got, ok := tab.GetOptimistic(lo, 0); !ok || got != ppa {
		t.Fatalf("GetOptimistic = (%d,%v), want (%d,true)", got, ok, ppa)
	}
	if !tab.SeqValidate(v2) {
		t.Fatal("read-only probe broke validation")
	}

	tab.Invalidate()
	if _, ok := tab.SeqSnapshot(); ok {
		t.Fatal("invalidated table reported a stable snapshot")
	}
	if tab.SeqValidate(v2) {
		t.Fatal("pre-invalidate snapshot validated on a poisoned table")
	}
	tab.Invalidate() // idempotent: stays odd
	if _, ok := tab.SeqSnapshot(); ok {
		t.Fatal("double-invalidated table reported stable")
	}

	tab.Reset() // full bracket from a poisoned state must land even
	if _, ok := tab.SeqSnapshot(); !ok {
		t.Fatal("Reset did not revive the poisoned counter")
	}
}

// TestSeqlockTorture races one mutator against optimistic readers on a
// deliberately tiny, hot table. Readers accept a probe only when the
// snapshot/validate pair passes; every accepted probe must then be
// self-consistent (the PPA encodes the signature's identity). The test
// also requires that at least one validation failure was observed, so
// the schedule demonstrably tore a read rather than serializing.
func TestSeqlockTorture(t *testing.T) {
	const (
		ids     = 12
		readers = 4
	)
	tab := New(16, 8) // small: inserts displace, deletes free, constant churn

	var stop atomic.Bool
	var torn, accepted atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				id := (seed + i) % ids
				lo, want := sigForID(id)
				v, ok := tab.SeqSnapshot()
				if !ok {
					torn.Add(1)
					continue
				}
				ppa, found := tab.GetOptimistic(lo, 0)
				if !tab.SeqValidate(v) {
					torn.Add(1)
					continue
				}
				accepted.Add(1)
				if found && ppa != want {
					t.Errorf("torn read: sig of id %d returned ppa %d", id, ppa)
					return
				}
			}
		}(uint64(r) * 5)
	}

	// Mutator: churn inserts/deletes so slots are constantly rewritten
	// and displaced mid-probe. Keep mutating until the readers have made
	// real progress (on a single core the tight loop can otherwise
	// finish before they are ever scheduled), with a generous round cap
	// as the safety net.
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; !t.Failed(); round++ {
		id := uint64(round) % ids
		lo, ppa := sigForID(id)
		if round%3 == 2 {
			tab.Delete(lo)
		} else if _, err := tab.Put(lo, ppa); err != nil {
			t.Fatalf("put id %d: %v", id, err)
		}
		if round%1024 == 0 {
			time.Sleep(time.Microsecond) // park, so readers get the CPU
			if (round >= 40000 && accepted.Load() > 10000) || time.Now().After(deadline) {
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("no optimistic probe ever validated")
	}
	if torn.Load() == 0 {
		t.Skip("schedule never overlapped a write; nothing exercised (single-core timing)")
	}
	t.Logf("accepted=%d torn=%d", accepted.Load(), torn.Load())
}
