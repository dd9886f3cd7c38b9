package hopscotch

import "testing"

func TestWideDistinguishesHiHalves(t *testing.T) {
	tb := NewWide(64, 32)
	if !tb.Wide() {
		t.Fatal("NewWide not wide")
	}
	// Same low half, different high halves: two distinct records.
	if _, err := tb.PutWide(42, 1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.PutWide(42, 2, 200); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if ppa, ok := tb.GetWide(42, 1); !ok || ppa != 100 {
		t.Fatalf("GetWide(42,1) = (%d,%v)", ppa, ok)
	}
	if ppa, ok := tb.GetWide(42, 2); !ok || ppa != 200 {
		t.Fatalf("GetWide(42,2) = (%d,%v)", ppa, ok)
	}
	if _, ok := tb.GetWide(42, 3); ok {
		t.Fatal("GetWide matched wrong hi half")
	}
	if _, ok := tb.DeleteWide(42, 1); !ok {
		t.Fatal("DeleteWide failed")
	}
	if _, ok := tb.GetWide(42, 1); ok {
		t.Fatal("record survived DeleteWide")
	}
	if ppa, ok := tb.GetWide(42, 2); !ok || ppa != 200 {
		t.Fatalf("sibling record lost: (%d,%v)", ppa, ok)
	}
}

func TestWideRange(t *testing.T) {
	tb := NewWide(32, 16)
	tb.PutWide(1, 11, 100)
	tb.PutWide(2, 22, 200)
	seen := map[uint64]uint64{}
	tb.RangeWide(func(lo, hi, ppa uint64) bool {
		seen[lo] = hi
		return true
	})
	if seen[1] != 11 || seen[2] != 22 {
		t.Fatalf("RangeWide saw %v", seen)
	}
}

func TestNarrowRangeWideGivesZeroHi(t *testing.T) {
	tb := New(32, 16)
	tb.Put(5, 50)
	tb.RangeWide(func(lo, hi, ppa uint64) bool {
		if hi != 0 {
			t.Fatalf("narrow table hi = %d", hi)
		}
		return true
	})
}

func TestWideSlotSizes(t *testing.T) {
	if New(8, 4).SlotSizeOf() != SlotSize {
		t.Fatal("narrow slot size wrong")
	}
	if NewWide(8, 4).SlotSizeOf() != SlotSizeWide {
		t.Fatal("wide slot size wrong")
	}
}

func TestWideResetClearsHi(t *testing.T) {
	tb := NewWide(16, 8)
	tb.PutWide(1, 99, 10)
	tb.Reset()
	if _, ok := tb.GetWide(1, 99); ok {
		t.Fatal("record survived Reset")
	}
	// Insert again; hi must not leak from the old record.
	tb.PutWide(1, 0, 20)
	if _, ok := tb.GetWide(1, 99); ok {
		t.Fatal("stale hi half matched")
	}
}
