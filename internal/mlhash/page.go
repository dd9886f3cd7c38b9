package mlhash

import (
	"encoding/binary"

	"repro/internal/dram"
)

// page is one cached index page held as raw on-flash bytes: slots of
// {sig:8, ppa:5}. Clean pages alias the flash array's storage (zero
// copy); the first mutation copies the buffer (owned=true). Keeping the
// wire format avoids per-load decoding, which dominates replay cost when
// the cache thrashes. The embedded node is its cache entry.
type page struct {
	dram.Node
	buf   []byte
	dirty bool
	owned bool
}

func (pg *page) slots() int { return len(pg.buf) / SlotSize }

// find returns the byte offset of sig's slot, or -1.
func (pg *page) find(sig uint64) int {
	for off := 0; off+SlotSize <= len(pg.buf); off += SlotSize {
		if binary.LittleEndian.Uint64(pg.buf[off:]) == sig && readPPA(pg.buf[off+8:]) != emptyPPA {
			return off
		}
	}
	return -1
}

// findFree returns the byte offset of a vacant slot, or -1.
func (pg *page) findFree() int {
	for off := 0; off+SlotSize <= len(pg.buf); off += SlotSize {
		if readPPA(pg.buf[off+8:]) == emptyPPA {
			return off
		}
	}
	return -1
}

func (pg *page) ppaAt(off int) uint64 { return readPPA(pg.buf[off+8:]) }

// own ensures the buffer is private before mutation, drawing scratch
// space from the index's buffer pool.
func (pg *page) own(ix *Index) {
	if pg.owned {
		return
	}
	buf := ix.getBuf()
	copy(buf, pg.buf)
	pg.buf = buf
	pg.owned = true
}

// setSlot writes a record at the given byte offset (page must be owned).
func (pg *page) setSlot(off int, sig, ppa uint64) {
	binary.LittleEndian.PutUint64(pg.buf[off:], sig)
	writePPA(pg.buf[off+8:], ppa)
}

func readPPA(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32
}

func writePPA(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
}

// getBuf takes a page buffer from the pool (or allocates one), with
// every slot vacant only when freshly allocated via newEmptyPage.
func (ix *Index) getBuf() []byte {
	if n := len(ix.bufPool); n > 0 {
		buf := ix.bufPool[n-1]
		ix.bufPool = ix.bufPool[:n-1]
		return buf
	}
	return make([]byte, ix.slots*SlotSize)
}

// putBuf recycles an owned buffer after its page left the cache.
func (ix *Index) putBuf(buf []byte) {
	if len(ix.bufPool) < 64 {
		ix.bufPool = append(ix.bufPool, buf)
	}
}

// newEmptyPage returns an owned page with every slot vacant.
func (ix *Index) newEmptyPage() *page {
	buf := ix.getBuf()
	copy(buf, ix.emptyImage)
	return &page{buf: buf, owned: true}
}
