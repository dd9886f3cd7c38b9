package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/workload"
)

// A stored value carries its key ID in bytes 0-7 and a version in bytes
// 8-15 (big endian); every read checks the ID, and the wire-wal restart
// check compares versions. The rest is filler.
const valueHeader = 16

// keyTable renders workload.KeyBytes(id) for id < len without a Sprintf
// per op: the preloaded key space comes from one backing array, keys
// inserted during the window are formatted into the caller's buffer.
type keyTable struct {
	n    uint64
	back []byte
}

const keyLen = 16

func newKeyTable(n uint64) *keyTable {
	t := &keyTable{n: n, back: make([]byte, n*keyLen)}
	for id := uint64(0); id < n; id++ {
		formatKey(t.back[id*keyLen:id*keyLen], id)
	}
	return t
}

// formatKey appends the canonical 16-byte key of id to dst.
func formatKey(dst []byte, id uint64) []byte {
	const hex = "0123456789abcdef"
	id &= 0xffffffffffffff
	dst = append(dst, 'k')
	for shift := 56; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(id>>uint(shift))&0xf])
	}
	return dst
}

// key returns id's key bytes; scratch is used for ids past the table.
func (t *keyTable) key(id uint64, scratch []byte) []byte {
	if id < t.n {
		return t.back[id*keyLen : (id+1)*keyLen : (id+1)*keyLen]
	}
	return formatKey(scratch[:0], id)
}

// parseKeyID is the inverse of formatKey.
func parseKeyID(key []byte) (uint64, bool) {
	if len(key) != keyLen || key[0] != 'k' {
		return 0, false
	}
	var id uint64
	for _, c := range key[1:] {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

// checkKeyFormat guards formatKey against drifting from the repository's
// key format.
func checkKeyFormat() error {
	for _, id := range []uint64{0, 1, 255, 199_999, 1 << 40, 1<<56 - 1} {
		if got, want := string(formatKey(nil, id)), string(workload.KeyBytes(id)); got != want {
			return fmt.Errorf("formatKey(%d) = %q, workload.KeyBytes gives %q", id, got, want)
		}
	}
	return nil
}

// fillValue stamps id and version into buf[:size] and returns it; buf
// already holds the filler.
func fillValue(buf []byte, size int, id, version uint64) []byte {
	v := buf[:size]
	binary.BigEndian.PutUint64(v[0:8], id)
	binary.BigEndian.PutUint64(v[8:16], version)
	return v
}

func newValueBuf(size int) []byte {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	return buf
}

// valueID and valueVersion decode a stored value's header.
func valueID(v []byte) (uint64, bool) {
	if len(v) < valueHeader {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[0:8]), true
}

func valueVersion(v []byte) uint64 { return binary.BigEndian.Uint64(v[8:16]) }

// op is one request of a worker's stream, with the key ID already mapped
// into that worker's part of the key space.
type op struct {
	kind workload.OpKind
	id   uint64
	size int
}

// stream is worker w's deterministic request stream. Generator IDs map to
// key IDs so that no two workers ever write the same key: updates of a
// preloaded ID go to the nearest ID the worker owns (id ≡ w mod workers),
// and the j-th key a worker inserts is records + j*workers + w. Reads and
// scans address any preloaded key, and (latest distribution) the worker's
// own inserts. With one writer per key, the order of a key's versions is
// the order of their acknowledgements.
type stream struct {
	gen     *workload.YCSB
	records uint64
	w, nw   uint64
}

func newStream(s spec, w int, seed int64) (*stream, error) {
	var sizes workload.SizeDist = workload.Fixed{Size: s.valMin}
	if s.valMax > s.valMin {
		sizes = workload.NewZipfSizes(s.valMin, s.valMax, zipfTheta, seed+int64(w)+1000)
	}
	gen, err := workload.NewYCSB(s.ycsb(), s.records, sizes, seed+int64(w))
	if err != nil {
		return nil, err
	}
	return &stream{gen: gen, records: s.records, w: uint64(w), nw: uint64(s.clients)}, nil
}

func (st *stream) next() op {
	o := st.gen.Next()
	id := o.KeyID
	switch {
	case id >= st.records:
		id = st.records + (id-st.records)*st.nw + st.w
	case o.Kind == workload.OpStore:
		id = id - id%st.nw + st.w
		if id >= st.records {
			// The last, partial stripe has no slot for this worker
			// (records >= workers wherever the mix has updates).
			id -= st.nw
		}
	}
	return op{kind: o.Kind, id: id, size: o.ValueSize}
}

// scanGroup is the range of key IDs sharing id's scan prefix.
func scanGroup(id uint64, prefixLen int) (lo, hi uint64) {
	shift := uint(4 * (keyLen - prefixLen))
	lo = id >> shift << shift
	return lo, lo + 1<<shift
}
