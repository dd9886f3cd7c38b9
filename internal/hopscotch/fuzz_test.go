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
// low-32 signature filter must agree with a Range oracle, and a probe of
// the page image (ProbeImage) must agree with GetWide on the decoded
// table. Wide tables store a nonzero upper half, so that a probe with
// the high half changed has something to miss.
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
		hiOf := func(sig uint64) uint64 {
			if wide {
				return ^sig
			}
			return 0
		}

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
				replaced, err := tb.PutWide(sig, hiOf(sig), ppa)
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
				got, ok := tb.GetWide(sig, hiOf(sig))
				want, has := model[sig]
				if ok != has || (has && got != want) {
					t.Fatalf("op %d: Get(%#x) = (%d,%v), model (%d,%v)", i, sig, got, ok, want, has)
				}
			case 2: // delete
				got, ok := tb.DeleteWide(sig, hiOf(sig))
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
			if got, ok := fresh.GetWide(sig, hiOf(sig)); !ok || got != want {
				t.Fatalf("decoded Get(%#x) = (%d,%v), want %d", sig, got, ok, want)
			}
		}
		again := make([]byte, len(buf))
		fresh.EncodeTo(again)
		if !bytes.Equal(again, buf) {
			t.Fatal("re-encoding the decoded table changed the page image")
		}
		checkProbe(t, fresh, buf, pool, hiOf)

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
		checkProbe(t, fresh, buf, fresh.sigs, fresh.hiOfSig)
	})
}

// hiOfSig is the upper half stored beside the first slot holding sig
// (0 when none does), so a raw image's probes can ask for what is there.
func (t *Table) hiOfSig(sig uint64) uint64 {
	for i, s := range t.sigs {
		if s == sig {
			return t.hiOf(i)
		}
	}
	return 0
}

// checkProbe compares ProbeImage on buf, the page image of tb, with
// GetWide on tb: for each signature in sigs with the upper half hiOf
// gives and with that half changed, for signature 0 (which free slots
// carry too), and for signatures nobody stored. A buffer one byte short
// must be an error, not a panic.
func checkProbe(t *testing.T, tb *Table, buf []byte, sigs []uint64, hiOf func(uint64) uint64) {
	t.Helper()
	probe := func(lo, hi uint64) {
		got, ok, err := ProbeImage(buf, tb.Cap(), tb.Wide(), lo, hi)
		want, has := tb.GetWide(lo, hi)
		if err != nil || ok != has || got != want {
			t.Fatalf("ProbeImage(%#x, %#x) = (%d, %v, %v), GetWide (%d, %v)", lo, hi, got, ok, err, want, has)
		}
	}
	probe(0, 0)
	for i, sig := range sigs {
		probe(sig, hiOf(sig))
		probe(sig, hiOf(sig)^1)
		probe(hash.Mix64(sig+uint64(i)), 0)
	}
	if _, _, err := ProbeImage(buf[:len(buf)-1], tb.Cap(), tb.Wide(), 0, 0); err == nil {
		t.Fatal("probe accepted a truncated buffer")
	}
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
