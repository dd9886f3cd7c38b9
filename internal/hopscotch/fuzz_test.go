package hopscotch

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hash"
)

// FuzzHopscotchTable differentially fuzzes a table against a
// map[uint64]uint64 model. The input bytes choose the geometry and an
// op stream; keys are drawn from a pool deliberately seeded with
// signatures sharing one home bucket (adversarial collisions that force
// hopscotch displacement chains), plus a spread of ordinary signatures.
// After the op stream the table is serialized and decoded into a fresh
// table, which must reproduce the model exactly and re-encode to the
// same page image; a buffer one byte short must be refused. Last, the
// input bytes themselves are decoded as a page image: every column is
// stored verbatim, so any image must survive decode → encode unchanged
// whatever the capacity leaves for the loops' tails. On both tables the
// low-32 signature filter must agree with a Range oracle.
func FuzzHopscotchTable(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1})       // puts then gets/deletes
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // overfill a tiny table
	f.Add([]byte{31, 8, 0, 9, 0, 9, 2, 9, 1, 9})            // update + delete same key
	f.Add([]byte{60, 1})                                    // no ops, empty roundtrip
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0])%61
		hopRange := 1 + int(data[1])%MaxHopRange
		wide := data[1]&0x80 != 0
		tb := newTable(capacity, hopRange, wide)
		model := map[uint64]uint64{}

		// Key pool: half adversarial (same home bucket), half spread.
		pool := make([]uint64, 0, 16)
		for s := uint64(1); len(pool) < 8 && s < 1<<20; s++ {
			if int(hash.Mix64(s)%uint64(capacity)) == 0 {
				pool = append(pool, s)
			}
		}
		for s := uint64(1 << 32); len(pool) < 16; s += 0x9e3779b9 {
			pool = append(pool, s)
		}

		ops := data[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			sig := pool[int(ops[i+1])%len(pool)]
			ppa := uint64(i/2) + 1
			switch ops[i] % 3 {
			case 0: // put
				replaced, err := tb.Put(sig, ppa)
				_, has := model[sig]
				if err != nil {
					if has {
						t.Fatalf("op %d: update of present sig %#x failed: %v", i, sig, err)
					}
					break // full neighborhood: model unchanged
				}
				if replaced != has {
					t.Fatalf("op %d: Put replaced=%v, model has=%v", i, replaced, has)
				}
				model[sig] = ppa
			case 1: // get
				got, ok := tb.Get(sig)
				want, has := model[sig]
				if ok != has || (has && got != want) {
					t.Fatalf("op %d: Get(%#x) = (%d,%v), model (%d,%v)", i, sig, got, ok, want, has)
				}
			case 2: // delete
				got, ok := tb.Delete(sig)
				want, has := model[sig]
				if ok != has || (has && got != want) {
					t.Fatalf("op %d: Delete(%#x) = (%d,%v), model (%d,%v)", i, sig, got, ok, want, has)
				}
				delete(model, sig)
			}
			if tb.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model %d", i, tb.Len(), len(model))
			}
		}

		// The signature-column filter against the row-wise oracle, for
		// every group in the pool and for 0, which free slots also carry.
		checkLow32(t, tb, 0)
		for _, sig := range pool {
			checkLow32(t, tb, uint32(sig))
		}

		// Serialize → decode → everything must survive byte-exactly.
		buf := make([]byte, tb.EncodedBytes())
		tb.EncodeTo(buf)
		fresh := newTable(capacity, hopRange, wide)
		if err := fresh.DecodeFrom(buf[:len(buf)-1]); err == nil {
			t.Fatal("decode accepted a truncated buffer")
		}
		if err := fresh.DecodeFrom(buf); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if fresh.Len() != len(model) {
			t.Fatalf("decoded Len=%d, model %d", fresh.Len(), len(model))
		}
		for sig, want := range model {
			if got, ok := fresh.Get(sig); !ok || got != want {
				t.Fatalf("decoded Get(%#x) = (%d,%v), want %d", sig, got, ok, want)
			}
		}
		again := make([]byte, len(buf))
		fresh.EncodeTo(again)
		if !bytes.Equal(again, buf) {
			t.Fatal("re-encoding the decoded table changed the page image")
		}

		// The input as a raw page image.
		empty := 0
		for i := range buf {
			buf[i] = data[i%len(data)]
		}
		ppas := buf[capacity*(sigBytes+hopBytes):][:capacity*ppaBytes]
		for i := 0; i < capacity; i++ {
			if uint40(ppas[i*ppaBytes:]) == emptyPPA {
				empty++
			}
		}
		if err := fresh.DecodeFrom(buf); err != nil {
			t.Fatalf("decode raw image: %v", err)
		}
		if fresh.Len() != capacity-empty {
			t.Fatalf("raw image Len=%d, want %d", fresh.Len(), capacity-empty)
		}
		fresh.EncodeTo(again)
		if !bytes.Equal(again, buf) {
			t.Fatal("raw page image changed across decode → encode")
		}
		// A raw image repeats the input, so signatures share low halves,
		// and pairs any of them with a free or a used address.
		checkLow32(t, fresh, 0)
		for _, sig := range fresh.sigs {
			checkLow32(t, fresh, uint32(sig))
		}
	})
}

// checkLow32 compares AppendLow32 with the same filter written over
// Range, which visits slots in the same order.
func checkLow32(t *testing.T, tb *Table, low uint32) {
	t.Helper()
	var want []uint64
	tb.Range(func(sig, ppa uint64) bool {
		if uint32(sig) == low {
			want = append(want, ppa)
		}
		return true
	})
	if got := tb.AppendLow32(nil, low); !slices.Equal(got, want) {
		t.Fatalf("AppendLow32(%#x) = %v, Range oracle %v", low, got, want)
	}
}
