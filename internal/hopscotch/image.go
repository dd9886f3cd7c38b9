package hopscotch

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/hash"
)

// The page image is columnar and little-endian: R signatures (8 bytes
// each), R hopinfos (4), R physical page addresses packed to 40 bits
// (5), then for wide tables R upper signature halves (8). Per slot that
// is the kh + hi + ppa of Eq. 1, so a table occupies R·SlotSize bytes
// however its fields are ordered; columns make encode and decode
// straight runs over each in-memory array with no per-slot branch. An
// unoccupied slot is {0, 0, emptyPPA}, in the image as in memory.
const (
	sigBytes = 8
	hopBytes = 4
	ppaBytes = 5
)

// EncodedSize reports the number of bytes a 64-bit-signature table with
// the given capacity occupies on flash.
func EncodedSize(capacity int) int { return capacity * SlotSize }

// EncodedSizeWide is EncodedSize for 128-bit-signature tables.
func EncodedSizeWide(capacity int) int { return capacity * SlotSizeWide }

// EncodedBytes reports the flash footprint of this table.
func (t *Table) EncodedBytes() int { return len(t.sigs) * t.SlotSizeOf() }

// EncodeTo serializes the table into buf, which must hold at least
// t.EncodedBytes() bytes.
func (t *Table) EncodeTo(buf []byte) {
	need := t.EncodedBytes()
	if len(buf) < need {
		panic(fmt.Sprintf("hopscotch: encode buffer %d < %d", len(buf), need))
	}
	n := len(t.sigs)
	storeUint64s(buf[:n*sigBytes], t.sigs)
	buf = buf[n*sigBytes:]
	storeUint32s(buf[:n*hopBytes], t.hops)
	buf = buf[n*hopBytes:]
	storeUint40s(buf[:n*ppaBytes], t.ppas)
	if t.his != nil {
		storeUint64s(buf[n*ppaBytes:], t.his)
	}
}

// DecodeFrom rebuilds the table state from a buffer produced by EncodeTo.
// The buffer's capacity and signature width must match the table's. It
// overwrites every slot with plain bulk stores, so like Reset it may run
// only while no optimistic reader can reach the table (see Table).
func (t *Table) DecodeFrom(buf []byte) error {
	need := t.EncodedBytes()
	if len(buf) < need {
		return fmt.Errorf("hopscotch: decode buffer %d < %d", len(buf), need)
	}
	n := len(t.sigs)
	t.beginWrite()
	loadUint64s(t.sigs, buf[:n*sigBytes])
	buf = buf[n*sigBytes:]
	loadUint32s(t.hops, buf[:n*hopBytes])
	buf = buf[n*hopBytes:]
	t.n = n - loadUint40s(t.ppas, buf[:n*ppaBytes])
	if t.his != nil {
		loadUint64s(t.his, buf[n*ppaBytes:])
	}
	t.endWrite()
	return nil
}

// ProbeImage is DecodeFrom followed by GetWide, without the decode: it
// looks sig (lo, hi) up directly in the page image EncodeTo wrote for a
// table of the given capacity and signature width. It reads the home
// slot's hopinfo word, the signatures its bits name, and the address
// (and, wide, the upper half) of a matching slot — a few cache lines of
// the image instead of all of it. Like DecodeFrom it rejects a buffer
// shorter than the image; the bytes are otherwise trusted as written.
func ProbeImage(buf []byte, capacity int, wide bool, lo, hi uint64) (ppa uint64, ok bool, err error) {
	n, need := capacity, EncodedSize(capacity)
	if wide {
		need = EncodedSizeWide(capacity)
	}
	if n < 1 || len(buf) < need {
		return 0, false, fmt.Errorf("hopscotch: probe buffer %d < %d", len(buf), need)
	}
	sigs, hops := buf[:n*sigBytes], buf[n*sigBytes:n*(sigBytes+hopBytes)]
	ppas := buf[n*(sigBytes+hopBytes) : n*SlotSize]
	home := int(hash.Mix64(lo) % uint64(n))
	for hop := binary.LittleEndian.Uint32(hops[home*hopBytes:]); hop != 0; hop &= hop - 1 {
		slot := (home + bits.TrailingZeros32(hop)) % n
		if binary.LittleEndian.Uint64(sigs[slot*sigBytes:]) != lo {
			continue
		}
		p := uint40(ppas[slot*ppaBytes:])
		var h uint64
		if wide {
			h = binary.LittleEndian.Uint64(buf[n*SlotSize+slot*sigBytes:])
		}
		if p != emptyPPA && h == hi {
			return p, true, nil
		}
	}
	return 0, false, nil
}

// The column loops below move four elements per iteration: re-slicing
// to a constant length lets the compiler drop the per-element bounds
// checks, and the loop overhead that is left is what separates these
// from a plain one-element loop (about 3x on a 1 927-slot column).

func loadUint64s(v []uint64, b []byte) {
	for ; len(v) >= 4; v, b = v[4:], b[32:] {
		v4, b32 := v[:4], b[:32]
		v4[0] = binary.LittleEndian.Uint64(b32[0:])
		v4[1] = binary.LittleEndian.Uint64(b32[8:])
		v4[2] = binary.LittleEndian.Uint64(b32[16:])
		v4[3] = binary.LittleEndian.Uint64(b32[24:])
	}
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
}

func storeUint64s(b []byte, v []uint64) {
	for ; len(v) >= 4; v, b = v[4:], b[32:] {
		v4, b32 := v[:4], b[:32]
		binary.LittleEndian.PutUint64(b32[0:], v4[0])
		binary.LittleEndian.PutUint64(b32[8:], v4[1])
		binary.LittleEndian.PutUint64(b32[16:], v4[2])
		binary.LittleEndian.PutUint64(b32[24:], v4[3])
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], x)
	}
}

func loadUint32s(v []uint32, b []byte) {
	for ; len(v) >= 4; v, b = v[4:], b[16:] {
		v4, b16 := v[:4], b[:16]
		v4[0] = binary.LittleEndian.Uint32(b16[0:])
		v4[1] = binary.LittleEndian.Uint32(b16[4:])
		v4[2] = binary.LittleEndian.Uint32(b16[8:])
		v4[3] = binary.LittleEndian.Uint32(b16[12:])
	}
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
}

func storeUint32s(b []byte, v []uint32) {
	for ; len(v) >= 4; v, b = v[4:], b[16:] {
		v4, b16 := v[:4], b[:16]
		binary.LittleEndian.PutUint32(b16[0:], v4[0])
		binary.LittleEndian.PutUint32(b16[4:], v4[1])
		binary.LittleEndian.PutUint32(b16[8:], v4[2])
		binary.LittleEndian.PutUint32(b16[12:], v4[3])
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], x)
	}
}

// The 40-bit columns move whole 8-byte words at a 5-byte stride, so the
// fourth word of a group reaches 3 bytes past it. b must be exactly the
// column: the main loops stop while those 3 bytes are still inside it
// and the last few elements go byte by byte.

// loadUint40s unpacks a PPA column and returns how many of its slots
// are empty. ppa+1 carries into bit 40 exactly when ppa is emptyPPA, so
// the count needs no branch.
func loadUint40s(v []uint64, b []byte) (empty int) {
	var e uint64
	for ; len(b) >= 23; v, b = v[4:], b[20:] {
		v4, b23 := v[:4], b[:23]
		p0 := binary.LittleEndian.Uint64(b23[0:]) & emptyPPA
		p1 := binary.LittleEndian.Uint64(b23[5:]) & emptyPPA
		p2 := binary.LittleEndian.Uint64(b23[10:]) & emptyPPA
		p3 := binary.LittleEndian.Uint64(b23[15:]) & emptyPPA
		v4[0], v4[1], v4[2], v4[3] = p0, p1, p2, p3
		e += (p0+1)>>40 + (p1+1)>>40 + (p2+1)>>40 + (p3+1)>>40
	}
	for i := range v {
		p := uint40(b[i*5:])
		v[i] = p
		e += (p + 1) >> 40
	}
	return int(e)
}

// storeUint40s packs a PPA column. The 3 bytes each word store spills
// past its own 5 are rewritten by the store that follows it.
func storeUint40s(b []byte, v []uint64) {
	for ; len(b) >= 23; v, b = v[4:], b[20:] {
		v4, b23 := v[:4], b[:23]
		binary.LittleEndian.PutUint64(b23[0:], v4[0])
		binary.LittleEndian.PutUint64(b23[5:], v4[1])
		binary.LittleEndian.PutUint64(b23[10:], v4[2])
		binary.LittleEndian.PutUint64(b23[15:], v4[3])
	}
	for i, p := range v {
		putUint40(b[i*5:], p)
	}
}

func putUint40(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
}

func uint40(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32
}
