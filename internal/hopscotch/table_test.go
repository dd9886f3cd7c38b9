package hopscotch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	tb := New(64, 32)
	if _, err := tb.Put(42, 1000); err != nil {
		t.Fatal(err)
	}
	ppa, ok := tb.Get(42)
	if !ok || ppa != 1000 {
		t.Fatalf("Get = (%d,%v), want (1000,true)", ppa, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	ppa, ok = tb.Delete(42)
	if !ok || ppa != 1000 {
		t.Fatalf("Delete = (%d,%v)", ppa, ok)
	}
	if _, ok := tb.Get(42); ok {
		t.Fatal("Get found deleted record")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	tb := New(16, 8)
	if rep, _ := tb.Put(7, 100); rep {
		t.Fatal("first Put reported replace")
	}
	rep, err := tb.Put(7, 200)
	if err != nil || !rep {
		t.Fatalf("update = (%v,%v)", rep, err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after update = %d", tb.Len())
	}
	if ppa, _ := tb.Get(7); ppa != 200 {
		t.Fatalf("Get after update = %d", ppa)
	}
}

func TestPutRejectsUnstorableAddress(t *testing.T) {
	// 2^40-1 is the free-slot marker and anything wider is truncated by
	// the 5-byte column: storing either would leave a hop bit and a count
	// for a slot that still reads as free.
	tb := New(16, 8)
	tb.Put(7, 100)
	for _, ppa := range []uint64{emptyPPA, 1 << 40, ^uint64(0)} {
		if _, err := tb.Put(9, ppa); !errors.Is(err, ErrBadPPA) {
			t.Fatalf("insert of %#x = %v, want ErrBadPPA", ppa, err)
		}
		if _, err := tb.Put(7, ppa); !errors.Is(err, ErrBadPPA) {
			t.Fatalf("update to %#x = %v, want ErrBadPPA", ppa, err)
		}
	}
	if _, ok := tb.Get(9); ok || tb.Len() != 1 {
		t.Fatalf("rejected Put left a record: Len = %d", tb.Len())
	}
	if ppa, ok := tb.Get(7); !ok || ppa != 100 {
		t.Fatalf("rejected update changed the record: (%d, %v)", ppa, ok)
	}
	if _, err := tb.Put(9, emptyPPA-1); err != nil {
		t.Fatalf("largest storable address: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	tb := New(8, 4)
	if _, ok := tb.Get(99); ok {
		t.Fatal("Get on empty table returned ok")
	}
	if _, ok := tb.Delete(99); ok {
		t.Fatal("Delete on empty table returned ok")
	}
}

func TestFillToCapacitySmallTable(t *testing.T) {
	// With hop range == capacity, every slot is reachable, so the table
	// must accept exactly Cap records.
	tb := New(32, 32)
	inserted := 0
	for sig := uint64(1); inserted < 32; sig++ {
		if _, err := tb.Put(sig, sig); err != nil {
			t.Fatalf("Put(%d) failed at %d/32: %v", sig, inserted, err)
		}
		inserted++
	}
	if tb.Occupancy() != 1.0 {
		t.Fatalf("Occupancy = %v", tb.Occupancy())
	}
	if _, err := tb.Put(1<<40, 1); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("Put on full table = %v, want ErrNoSlot", err)
	}
}

func TestDisplacementPreservesRecords(t *testing.T) {
	// Dense fill of a paper-sized table (R=1927, H=32): hopscotch must
	// displace aggressively yet every inserted record stays retrievable.
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(7))
	stored := make(map[uint64]uint64)
	for len(stored) < 1600 { // ~83% occupancy
		sig := rng.Uint64()
		ppa := uint64(rng.Int63n(1 << 39))
		if _, err := tb.Put(sig, ppa); err != nil {
			continue // collision aborts allowed; don't record
		}
		stored[sig] = ppa
	}
	for sig, want := range stored {
		got, ok := tb.Get(sig)
		if !ok || got != want {
			t.Fatalf("Get(%#x) = (%d,%v), want (%d,true)", sig, got, ok, want)
		}
	}
}

func TestOracleProperty(t *testing.T) {
	// Random op sequence against a map oracle.
	type op struct {
		Kind byte
		Sig  uint16 // narrow keyspace to force collisions/updates
		PPA  uint32
	}
	f := func(ops []op) bool {
		tb := New(97, 16) // prime capacity exercises wraparound
		oracle := make(map[uint64]uint64)
		for _, o := range ops {
			sig := uint64(o.Sig)
			switch o.Kind % 3 {
			case 0:
				ppa := uint64(o.PPA) % emptyPPA
				if _, err := tb.Put(sig, ppa); err == nil {
					oracle[sig] = ppa
				} else if _, exists := oracle[sig]; exists {
					return false // update of existing key must not fail
				}
			case 1:
				got, ok := tb.Get(sig)
				want, exists := oracle[sig]
				if ok != exists || (ok && got != want) {
					return false
				}
			case 2:
				got, ok := tb.Delete(sig)
				want, exists := oracle[sig]
				if ok != exists || (ok && got != want) {
					return false
				}
				delete(oracle, sig)
			}
		}
		if tb.Len() != len(oracle) {
			return false
		}
		for sig, want := range oracle {
			if got, ok := tb.Get(sig); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tb := New(128, 32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tb.Put(rng.Uint64(), uint64(rng.Int63n(1<<39)))
	}
	buf := make([]byte, EncodedSize(tb.Cap()))
	tb.EncodeTo(buf)

	tb2 := New(128, 32)
	if err := tb2.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != tb.Len() {
		t.Fatalf("decoded Len = %d, want %d", tb2.Len(), tb.Len())
	}
	tb.Range(func(sig, ppa uint64) bool {
		got, ok := tb2.Get(sig)
		if !ok || got != ppa {
			t.Fatalf("decoded Get(%#x) = (%d,%v), want (%d,true)", sig, got, ok, ppa)
		}
		return true
	})
	// Decoded table must still accept inserts and deletes correctly.
	tb.Range(func(sig, ppa uint64) bool {
		if _, ok := tb2.Delete(sig); !ok {
			t.Fatalf("decoded Delete(%#x) failed", sig)
		}
		return true
	})
	if tb2.Len() != 0 {
		t.Fatalf("decoded table not empty after deletes: %d", tb2.Len())
	}
}

// TestEncodeDecodePropertyRoundTrip checks the page image over both
// signature widths, hop ranges 1/8/32 and empty, 80 % and as-full-as-
// Put-allows tables, at capacities that leave every possible tail for
// the four-at-a-time column loops: the decoded table holds exactly the
// source's records (through the locked and the optimistic probe), still
// mutates correctly, and re-encodes to the same bytes.
func TestEncodeDecodePropertyRoundTrip(t *testing.T) {
	type rec struct{ lo, hi, ppa uint64 }
	for _, wide := range []bool{false, true} {
		for _, hop := range []int{1, 8, 32} {
			for _, fill := range []int{0, 80, 100} {
				wide, hop, fill := wide, hop, fill
				t.Run(fmt.Sprintf("wide=%v/hop=%d/fill=%d", wide, hop, fill), func(t *testing.T) {
					f := func(seed int64, capSel uint8) bool {
						capacity := 1 + int(capSel)%67
						rng := rand.New(rand.NewSource(seed))
						tb := newTable(capacity, hop, wide)
						var recs []rec
						for tries := 0; tb.Len() < capacity*fill/100 && tries < 64*capacity; tries++ {
							r := rec{lo: rng.Uint64(), ppa: uint64(rng.Int63n(emptyPPA))}
							if wide {
								r.hi = rng.Uint64()
							}
							if _, err := tb.PutWide(r.lo, r.hi, r.ppa); err == nil {
								recs = append(recs, r)
							}
						}
						buf := make([]byte, tb.EncodedBytes())
						tb.EncodeTo(buf)
						tb2 := newTable(capacity, hop, wide)
						tb2.PutWide(1, 0, 1) // decode must overwrite, not merge
						if err := tb2.DecodeFrom(buf); err != nil || tb2.Len() != len(recs) {
							return false
						}
						for _, r := range recs {
							if got, ok := tb2.GetWide(r.lo, r.hi); !ok || got != r.ppa {
								return false
							}
							if got, ok := tb2.GetOptimistic(r.lo, r.hi); !ok || got != r.ppa {
								return false
							}
						}
						again := make([]byte, len(buf))
						tb2.EncodeTo(again)
						if !bytes.Equal(again, buf) {
							return false
						}
						for _, r := range recs {
							if got, ok := tb2.DeleteWide(r.lo, r.hi); !ok || got != r.ppa {
								return false
							}
						}
						if tb2.Len() != 0 {
							return false
						}
						tb2.EncodeTo(again)
						tb.Reset()
						tb.EncodeTo(buf)
						return bytes.Equal(again, buf) // emptied by Delete == emptied by Reset
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFullTableRoundTrip: with the hop range clamped to the capacity any
// free slot is reachable, so a table can be filled to its last slot; no
// slot of its image may read as empty.
func TestFullTableRoundTrip(t *testing.T) {
	tb := New(32, 32)
	rng := rand.New(rand.NewSource(5))
	for tb.Len() < tb.Cap() {
		if _, err := tb.Put(rng.Uint64(), uint64(tb.Len())); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, tb.EncodedBytes())
	tb.EncodeTo(buf)
	tb2 := New(32, 32)
	if err := tb2.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != 32 {
		t.Fatalf("decoded Len = %d, want 32", tb2.Len())
	}
	if _, err := tb2.Put(rng.Uint64(), 1); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("Put into a decoded full table: %v, want ErrNoSlot", err)
	}
}

// TestPageImageLayout pins the on-flash format byte for byte on a table
// small enough to write out: R signatures, R hopinfos, R 40-bit PPAs,
// then (wide) R upper signature halves, all little-endian, free slots
// zero with an all-ones PPA.
func TestPageImageLayout(t *testing.T) {
	tb := NewWide(3, 2)
	const lo, hi, ppa = 0x1122334455667788, 0x99aabbccddeeff00, 0xa1b2c3d4e5
	if _, err := tb.PutWide(lo, hi, ppa); err != nil {
		t.Fatal(err)
	}
	slot := tb.home(lo)
	want := make([]byte, 3*SlotSizeWide)
	binary.LittleEndian.PutUint64(want[8*slot:], lo)
	binary.LittleEndian.PutUint32(want[24+4*slot:], 1) // hop bit 0: the record sits in its home slot
	for i := 36; i < 51; i++ {
		want[i] = 0xff
	}
	copy(want[36+5*slot:], []byte{0xe5, 0xd4, 0xc3, 0xb2, 0xa1})
	binary.LittleEndian.PutUint64(want[51+8*slot:], hi)
	got := make([]byte, tb.EncodedBytes())
	tb.EncodeTo(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("page image\n got %x\nwant %x", got, want)
	}
}

// TestEncodedBytesPinned pins the flash footprint at the paper's 32 KiB
// page: Eq. 1 gives 1 927 records of 17 bytes, or 1 310 of 25 with
// 128-bit signatures, and the columnar image spends exactly that.
func TestEncodedBytesPinned(t *testing.T) {
	if got := New(1927, 32).EncodedBytes(); got != 32759 || got != EncodedSize(1927) {
		t.Fatalf("EncodedBytes = %d, want 32759", got)
	}
	if got := NewWide(1310, 32).EncodedBytes(); got != 32750 || got != EncodedSizeWide(1310) {
		t.Fatalf("wide EncodedBytes = %d, want 32750", got)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	tb := New(16, 8)
	if err := tb.DecodeFrom(make([]byte, 10)); err == nil {
		t.Fatal("DecodeFrom accepted short buffer")
	}
}

func TestEncodeShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeTo did not panic on short buffer")
		}
	}()
	New(16, 8).EncodeTo(make([]byte, 10))
}

func TestZeroSignatureIsStorable(t *testing.T) {
	// Signature 0 is a legal hash output; emptiness is encoded via the PPA
	// sentinel, not the signature.
	tb := New(16, 8)
	if _, err := tb.Put(0, 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, EncodedSize(16))
	tb.EncodeTo(buf)
	tb2 := New(16, 8)
	tb2.DecodeFrom(buf)
	if ppa, ok := tb2.Get(0); !ok || ppa != 5 {
		t.Fatalf("sig 0 lost in round trip: (%d,%v)", ppa, ok)
	}
}

// TestAppendLow32ZeroSkipsFreeSlots pins the filter's one trap: a free
// slot is {0, 0, emptyPPA}, so its signature column reads low == 0, and
// only the address column tells it from a stored record whose signature
// really ends in 32 zero bits. Iterator mode is 64-bit only, hence a
// narrow table.
func TestAppendLow32ZeroSkipsFreeSlots(t *testing.T) {
	tb := New(32, 8)
	put := func(sig, ppa uint64) {
		t.Helper()
		if _, err := tb.Put(sig, ppa); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 100)           // the all-zero signature
	put(7<<32, 101)       // low 32 bits zero, high bits set
	put(9<<32, 102)       // same, deleted below
	put(5<<32|0xabc, 200) // another prefix group
	put(6<<32|0xabc, 201)
	if _, ok := tb.Delete(9 << 32); !ok {
		t.Fatal("delete failed")
	}

	got := tb.AppendLow32(nil, 0)
	slices.Sort(got)
	if !slices.Equal(got, []uint64{100, 101}) {
		t.Fatalf("AppendLow32(0) = %v, want [100 101]: %d of 32 slots are free", got, 32-tb.Len())
	}
	got = tb.AppendLow32([]uint64{1}, 0xabc)
	slices.Sort(got[1:])
	if !slices.Equal(got, []uint64{1, 200, 201}) {
		t.Fatalf("AppendLow32(dst, 0xabc) = %v, want [1 200 201]", got)
	}
	if got := tb.AppendLow32(nil, 0xdef); len(got) != 0 {
		t.Fatalf("AppendLow32 of an absent group = %v", got)
	}
	if got := New(8, 4).AppendLow32(nil, 0); len(got) != 0 {
		t.Fatalf("empty table matched low 0: %v", got)
	}
}

func TestHopRangeClamping(t *testing.T) {
	if h := New(8, 100).HopRange(); h != 8 {
		t.Fatalf("hop clamped to %d, want 8 (capacity)", h)
	}
	if h := New(100, 100).HopRange(); h != MaxHopRange {
		t.Fatalf("hop clamped to %d, want %d", h, MaxHopRange)
	}
	if h := New(8, 0).HopRange(); h != 1 {
		t.Fatalf("hop clamped to %d, want 1", h)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New(32, 8)
	for i := uint64(1); i <= 10; i++ {
		tb.Put(i, i)
	}
	seen := 0
	tb.Range(func(sig, ppa uint64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("Range visited %d, want 3", seen)
	}
}

func TestReset(t *testing.T) {
	tb := New(32, 8)
	for i := uint64(1); i <= 10; i++ {
		tb.Put(i, i)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	if _, ok := tb.Get(5); ok {
		t.Fatal("Get found record after Reset")
	}
	if _, err := tb.Put(5, 5); err != nil {
		t.Fatalf("Put after Reset: %v", err)
	}
}

func TestCollisionAbortRateReasonable(t *testing.T) {
	// At 80% occupancy (the paper's default resize threshold) with H=32,
	// aborts should be rare (<1% of inserts), matching Fig. 8b's finding
	// that collision handling only degrades above 80%.
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(11))
	target := 1927 * 80 / 100
	aborts, tries := 0, 0
	for tb.Len() < target {
		tries++
		if _, err := tb.Put(rng.Uint64(), 1); err != nil {
			aborts++
		}
	}
	rate := float64(aborts) / float64(tries)
	if rate > 0.01 {
		t.Fatalf("abort rate %.4f at 80%% occupancy, want < 1%%", rate)
	}
}

func BenchmarkPut(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.Len() > 1500 {
			tb.Reset()
		}
		tb.Put(rng.Uint64(), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	sigs := make([]uint64, 1500)
	for i := range sigs {
		sigs[i] = rng.Uint64()
		tb.Put(sigs[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(sigs[i%len(sigs)])
	}
}

// pageTable is a record table of the default 32 KiB page geometry at
// the 80 % occupancy RHIK re-configures at.
func pageTable() *Table {
	tb := New(1927, 32)
	rng := rand.New(rand.NewSource(1))
	for tb.Len() < 1927*80/100 {
		tb.Put(rng.Uint64(), uint64(rng.Int63n(1<<39)))
	}
	return tb
}

func BenchmarkTableEncode(b *testing.B) {
	tb := pageTable()
	buf := make([]byte, tb.EncodedBytes())
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.EncodeTo(buf)
	}
}

// BenchmarkTableDecode times a page-in's CPU work. "hot" decodes one
// cache-resident image over and over; "cold" rotates through 64 MiB of
// images, more than any cache level holds, which is what a page-in of a
// flash page not touched since it was programmed sees.
func BenchmarkTableDecode(b *testing.B) {
	tb := pageTable()
	size := tb.EncodedBytes()
	for _, c := range []struct {
		name  string
		pages int
	}{{"hot", 1}, {"cold", 64<<20/size + 1}} {
		b.Run(c.name, func(b *testing.B) {
			images := make([]byte, c.pages*size)
			for p := 0; p < c.pages; p++ {
				tb.EncodeTo(images[p*size:])
			}
			dst := New(tb.Cap(), tb.HopRange())
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % c.pages
				if err := dst.DecodeFrom(images[p*size : (p+1)*size]); err != nil {
					b.Fatal(err)
				}
			}
			if dst.Len() != tb.Len() {
				b.Fatalf("decoded Len = %d, want %d", dst.Len(), tb.Len())
			}
		})
	}
}

func BenchmarkTableReset(b *testing.B) {
	tb := pageTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset()
	}
}
