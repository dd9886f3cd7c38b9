// Package layout implements RHIK's key-value aware data layout (Fig. 4).
// Variable-size KV pairs are packed log-style into flash pages; each data
// page carries a key-signature information area (a 2-byte pair count plus
// one {signature, offset} entry per pair) that garbage collection scans
// without consulting the host. Values too large for one page are stored as
// extents — a head page followed by continuation pages within the same
// erase block — which removes any index-induced limit on value size
// (§IV-A5): the index stores only the starting address of the pair.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Serialized sizes.
const (
	// HeaderSize is the per-pair metadata stored in front of the key:
	// flags (1) + key length (2) + value length (4) + sequence number (8).
	HeaderSize = 1 + 2 + 4 + 8
	// SigEntrySize is one key-signature information area entry:
	// signature (8) + in-page offset (4).
	SigEntrySize = 8 + 4
	// CountSize is the pair-count field closing the signature area.
	CountSize = 2
)

// Layout v2 (MVCC epochs). The count field's top bit flags the versioned
// info-area format: a v2 entry's 32-bit offset word packs the in-page
// offset in its low 16 bits and the pair's write-epoch delta (relative to
// the page's base epoch, recorded in the spare area) in its high 16 bits.
// Entry and count sizes are unchanged, so v1 and v2 pages are
// byte-length-identical and old checkpoints decode as epoch 0 — the
// compatibility shim. v2 requires in-page offsets to fit 16 bits, so
// builders fall back to v1 on pages larger than 64 KiB.
const (
	// countV2Flag marks a v2 info area in the count field's top bit.
	// MaxSlots (2048) keeps v1 counts well below it.
	countV2Flag = 0x8000
	// countMask extracts the pair count from the count field.
	countMask = 0x7FFF
	// maxV2PageSize bounds the page sizes whose offsets fit the v2
	// entry's 16-bit offset half.
	maxV2PageSize = 1 << 16
	// MaxEpochDelta is the largest per-pair epoch delta a v2 entry
	// encodes; a pair further from the page base opens a new page.
	MaxEpochDelta = 1<<16 - 1
	// MaxBaseEpoch is the largest base epoch the 7 spare-area bytes
	// hold (56 bits).
	MaxBaseEpoch = 1<<56 - 1
)

// Pair flags.
const (
	// FlagTombstone marks a delete record: the pair's key was removed.
	// Tombstones make deletions recoverable from the flash log.
	FlagTombstone = 1 << 0
)

// MaxKeyLen and MaxValueLen bound the encodable field widths.
const (
	MaxKeyLen   = 1<<16 - 1
	MaxValueLen = 1<<32 - 1
)

// SlotBits is the number of record-pointer bits addressing a pair's slot
// within its page; the rest address the page. A 32 KiB page holds at most
// ~1.2k minimal pairs, well under 1<<SlotBits.
const SlotBits = 11

// MaxSlots is the largest number of pairs addressable in one page.
const MaxSlots = 1 << SlotBits

// RP is a record pointer: the "physical address of the KV pair on flash"
// stored in index records. It packs a physical page address with the
// pair's slot index inside that page, and fits the index's 5-byte (40-bit)
// address field for any emulated geometry.
type RP uint64

// MakeRP composes a record pointer from a page address and slot index.
func MakeRP(page uint64, slot int) RP {
	if slot < 0 || slot >= MaxSlots {
		panic(fmt.Sprintf("layout: slot %d out of range", slot))
	}
	return RP(page<<SlotBits | uint64(slot))
}

// Page extracts the physical page address.
func (r RP) Page() uint64 { return uint64(r) >> SlotBits }

// Slot extracts the in-page slot index.
func (r RP) Slot() int { return int(uint64(r) & (MaxSlots - 1)) }

// Pair is one key-value record in device-internal form.
type Pair struct {
	Sig       uint64 // 64-bit key signature
	Key       []byte
	Value     []byte
	Seq       uint64 // global write sequence, for log-order recovery
	Epoch     uint64 // write epoch, for MVCC snapshot visibility
	Tombstone bool
}

// flags encodes the pair's flag byte.
func (p Pair) flags() byte {
	if p.Tombstone {
		return FlagTombstone
	}
	return 0
}

// PairSize reports the data-area bytes the pair body occupies.
func PairSize(keyLen, valueLen int) int { return HeaderSize + keyLen + valueLen }

// Errors returned by decoders.
var (
	ErrCorrupt  = errors.New("layout: corrupt page")
	ErrTooLarge = errors.New("layout: key or value exceeds encodable size")
)

// PageBuilder packs whole pairs into a single flash page image. The
// produced buffer is [pair bodies][sig entries][count]; it is trimmed to
// the bytes actually used, so partially-filled pages program quickly.
type PageBuilder struct {
	pageSize int
	v2       bool // offsets fit 16 bits: emit the epoch-carrying v2 format
	buf      []byte
	sigs     []uint64
	offs     []uint32
	deltas   []uint16
	base     uint64 // first pair's epoch; the page's base epoch
}

// NewPageBuilder returns a builder for pages of the given size.
func NewPageBuilder(pageSize int) *PageBuilder {
	return &PageBuilder{
		pageSize: pageSize,
		v2:       pageSize <= maxV2PageSize,
		buf:      make([]byte, 0, pageSize),
	}
}

// Fits reports whether a pair with the given key and value lengths can
// still be added to this page.
func (b *PageBuilder) Fits(keyLen, valueLen int) bool {
	if len(b.sigs) >= MaxSlots {
		return false
	}
	need := PairSize(keyLen, valueLen) + SigEntrySize
	return len(b.buf)+need+(len(b.sigs)*SigEntrySize)+CountSize <= b.pageSize
}

// Add appends a whole pair, returning its slot index. ok is false when the
// pair does not fit — by size, or (v2) because its epoch cannot be
// expressed as a 16-bit delta from the page's base epoch, which forces
// the caller to flush and open a fresh page with a fresh base.
func (b *PageBuilder) Add(p Pair) (slot int, ok bool) {
	if len(p.Key) > MaxKeyLen || len(p.Value) > MaxValueLen {
		return 0, false
	}
	if !b.Fits(len(p.Key), len(p.Value)) {
		return 0, false
	}
	var delta uint64
	if b.v2 {
		if len(b.sigs) == 0 {
			b.base = p.Epoch
		} else if p.Epoch < b.base || p.Epoch-b.base > MaxEpochDelta {
			return 0, false
		}
		delta = p.Epoch - b.base
	}
	slot = len(b.sigs)
	b.sigs = append(b.sigs, p.Sig)
	b.offs = append(b.offs, uint32(len(b.buf)))
	b.deltas = append(b.deltas, uint16(delta))
	b.buf = appendHeader(b.buf, p)
	b.buf = append(b.buf, p.Key...)
	b.buf = append(b.buf, p.Value...)
	return slot, true
}

// Base reports the page's base epoch: the first added pair's epoch (zero
// while empty, or when the builder emits the v1 format). The caller
// records it in the page's spare area via EncodeDataSpare.
func (b *PageBuilder) Base() uint64 {
	if !b.v2 || len(b.sigs) == 0 {
		return 0
	}
	return b.base
}

// PairAt decodes the pair in slot of the page being built, as
// DecodePairAt decodes it once programmed. Key and value alias the
// builder's buffer: they are valid until the next Reset.
func (b *PageBuilder) PairAt(slot int) (hdr PairHeader, key, value []byte, err error) {
	if slot < 0 || slot >= len(b.offs) {
		return hdr, nil, nil, fmt.Errorf("%w: slot %d beyond page (%d pairs)", ErrCorrupt, slot, len(b.offs))
	}
	return decodeBody(b.buf, int(b.offs[slot]))
}

// Count reports the number of pairs added so far.
func (b *PageBuilder) Count() int { return len(b.sigs) }

// DataLen reports the bytes of pair bodies written so far.
func (b *PageBuilder) DataLen() int { return len(b.buf) }

// Empty reports whether no pairs have been added.
func (b *PageBuilder) Empty() bool { return len(b.sigs) == 0 }

// Bytes finalizes the page image: pair bodies followed by the signature
// information area and the closing pair count. The builder remains usable
// only after Reset.
func (b *PageBuilder) Bytes() []byte {
	out := b.buf
	for i := range b.sigs {
		var e [SigEntrySize]byte
		binary.LittleEndian.PutUint64(e[:8], b.sigs[i])
		off := b.offs[i]
		if b.v2 {
			off |= uint32(b.deltas[i]) << 16
		}
		binary.LittleEndian.PutUint32(e[8:], off)
		out = append(out, e[:]...)
	}
	cntVal := uint16(len(b.sigs))
	if b.v2 {
		cntVal |= countV2Flag
	}
	var cnt [CountSize]byte
	binary.LittleEndian.PutUint16(cnt[:], cntVal)
	return append(out, cnt[:]...)
}

// Reset clears the builder for a new page.
func (b *PageBuilder) Reset() {
	b.buf = b.buf[:0]
	b.sigs = b.sigs[:0]
	b.offs = b.offs[:0]
	b.deltas = b.deltas[:0]
	b.base = 0
}

func appendHeader(buf []byte, p Pair) []byte {
	var h [HeaderSize]byte
	h[0] = p.flags()
	binary.LittleEndian.PutUint16(h[1:3], uint16(len(p.Key)))
	binary.LittleEndian.PutUint32(h[3:7], uint32(len(p.Value)))
	binary.LittleEndian.PutUint64(h[7:15], p.Seq)
	return append(buf, h[:]...)
}

// PairHeader is the decoded per-pair metadata.
type PairHeader struct {
	Flags    byte
	KeyLen   int
	ValueLen int // total value length, possibly spanning continuation pages
	Seq      uint64
}

// Tombstone reports whether the pair is a delete record.
func (h PairHeader) Tombstone() bool { return h.Flags&FlagTombstone != 0 }

// SigInfo is one decoded signature-area entry. EpochDelta is the pair's
// write epoch relative to the page's base epoch (DataSpareEpoch); it is
// zero for v1 pages, so base+delta degrades to "epoch 0" on pages written
// before versioning existed.
type SigInfo struct {
	Sig        uint64
	Offset     uint32
	EpochDelta uint32
}

// countAt decodes and validates the raw count field: the pair count and
// whether the page carries the v2 (epoch-delta) info-area format.
func countAt(page []byte) (n int, v2 bool, err error) {
	if len(page) < CountSize {
		return 0, false, fmt.Errorf("%w: page shorter than count field", ErrCorrupt)
	}
	raw := binary.LittleEndian.Uint16(page[len(page)-CountSize:])
	n = int(raw & countMask)
	v2 = raw&countV2Flag != 0
	if n > MaxSlots || len(page) < n*SigEntrySize+CountSize {
		return 0, false, fmt.Errorf("%w: count %d exceeds page", ErrCorrupt, n)
	}
	return n, v2, nil
}

// decodeEntry splits one raw offset word per the page's format version.
func decodeEntry(rawOff uint32, v2 bool) (off, delta uint32) {
	if v2 {
		return rawOff & 0xFFFF, rawOff >> 16
	}
	return rawOff, 0
}

// DecodeSigArea parses the signature information area at the tail of a
// page image produced by PageBuilder.Bytes or BuildExtent's head page.
func DecodeSigArea(page []byte) ([]SigInfo, error) {
	n, v2, err := countAt(page)
	if err != nil {
		return nil, err
	}
	infos := make([]SigInfo, n)
	base := len(page) - (n*SigEntrySize + CountSize)
	for i := 0; i < n; i++ {
		off := base + i*SigEntrySize
		infos[i].Sig = binary.LittleEndian.Uint64(page[off : off+8])
		raw := binary.LittleEndian.Uint32(page[off+8 : off+12])
		infos[i].Offset, infos[i].EpochDelta = decodeEntry(raw, v2)
	}
	return infos, nil
}

// SigCount reports the number of pairs in a page image without decoding
// the signature area.
func SigCount(page []byte) (int, error) {
	n, _, err := countAt(page)
	return n, err
}

// SigInfoAt decodes the single signature-area entry for slot, an
// allocation-free alternative to DecodeSigArea for point lookups on the
// GET hot path.
func SigInfoAt(page []byte, slot int) (SigInfo, int, error) {
	n, v2, err := countAt(page)
	if err != nil {
		return SigInfo{}, 0, err
	}
	if slot < 0 || slot >= n {
		return SigInfo{}, n, fmt.Errorf("%w: slot %d beyond page (%d pairs)", ErrCorrupt, slot, n)
	}
	off := len(page) - (n*SigEntrySize + CountSize) + slot*SigEntrySize
	raw := binary.LittleEndian.Uint32(page[off+8 : off+12])
	pOff, delta := decodeEntry(raw, v2)
	return SigInfo{
		Sig:        binary.LittleEndian.Uint64(page[off : off+8]),
		Offset:     pOff,
		EpochDelta: delta,
	}, n, nil
}

// DecodePairAt parses the pair body starting at offset off. The returned
// key and value alias the page buffer; value holds only the bytes present
// in this page's data area (shorter than header.ValueLen for extent
// heads, whose remainder lives in continuation pages). The page must end
// with a signature information area, which bounds the data area.
func DecodePairAt(page []byte, off int) (hdr PairHeader, key, value []byte, err error) {
	n, _, err := countAt(page)
	if err != nil {
		return hdr, nil, nil, err
	}
	return decodeBody(page[:len(page)-n*SigEntrySize-CountSize], off)
}

// decodeBody parses the pair body at offset off of a data area: pair
// bodies only, no signature information area behind them.
func decodeBody(data []byte, off int) (hdr PairHeader, key, value []byte, err error) {
	if off < 0 || off+HeaderSize > len(data) {
		return hdr, nil, nil, fmt.Errorf("%w: pair offset %d", ErrCorrupt, off)
	}
	hdr.Flags = data[off]
	hdr.KeyLen = int(binary.LittleEndian.Uint16(data[off+1 : off+3]))
	hdr.ValueLen = int(binary.LittleEndian.Uint32(data[off+3 : off+7]))
	hdr.Seq = binary.LittleEndian.Uint64(data[off+7 : off+15])

	keyStart := off + HeaderSize
	if keyStart+hdr.KeyLen > len(data) {
		return hdr, nil, nil, fmt.Errorf("%w: key overruns page", ErrCorrupt)
	}
	key = data[keyStart : keyStart+hdr.KeyLen]
	valStart := keyStart + hdr.KeyLen
	// An extent head's remainder lives in continuations.
	value = data[valStart:min(valStart+hdr.ValueLen, len(data))]
	return hdr, key, value, nil
}

// HeadCapacity reports how many value bytes fit in an extent head page for
// the given key length.
func HeadCapacity(pageSize, keyLen int) int {
	return pageSize - HeaderSize - keyLen - SigEntrySize - CountSize
}

// ExtentPages reports the total pages (head + continuations) a pair of the
// given sizes occupies, or 1 if it packs into a shared page.
func ExtentPages(pageSize, keyLen, valueLen int) int {
	if PairSize(keyLen, valueLen)+SigEntrySize+CountSize <= pageSize {
		return 1
	}
	rest := valueLen - HeadCapacity(pageSize, keyLen)
	return 1 + (rest+pageSize-1)/pageSize
}

// BuildExtent encodes a pair too large for one page as a head page image
// plus continuation payloads, each at most pageSize bytes. The pair's
// slot index in the head page is always 0.
func BuildExtent(pageSize int, p Pair) (head []byte, conts [][]byte, err error) {
	if len(p.Key) > MaxKeyLen || len(p.Value) > MaxValueLen {
		return nil, nil, ErrTooLarge
	}
	headCap := HeadCapacity(pageSize, len(p.Key))
	if headCap <= 0 {
		return nil, nil, fmt.Errorf("%w: key %d too large for page %d", ErrTooLarge, len(p.Key), pageSize)
	}
	if len(p.Value) <= headCap {
		return nil, nil, fmt.Errorf("layout: pair fits in one page; use PageBuilder")
	}

	head = make([]byte, 0, pageSize)
	head = appendHeader(head, p)
	head = append(head, p.Key...)
	head = append(head, p.Value[:headCap]...)
	// The head's single pair sits at offset 0 with delta 0: its epoch IS
	// the page base the caller records in the spare area.
	cnt := uint16(1)
	if pageSize <= maxV2PageSize {
		cnt |= countV2Flag
	}
	var e [SigEntrySize + CountSize]byte
	binary.LittleEndian.PutUint64(e[:8], p.Sig)
	binary.LittleEndian.PutUint32(e[8:12], 0)
	binary.LittleEndian.PutUint16(e[12:], cnt)
	head = append(head, e[:]...)

	for off := headCap; off < len(p.Value); off += pageSize {
		end := off + pageSize
		if end > len(p.Value) {
			end = len(p.Value)
		}
		conts = append(conts, p.Value[off:end])
	}
	return head, conts, nil
}

// PageKind labels what a flash page holds, recorded in its spare area so
// GC and recovery can classify pages without decoding them.
type PageKind byte

// Page kinds.
const (
	KindData         PageKind = 1 // packed pairs or an extent head
	KindContinuation PageKind = 2 // extent continuation payload
	KindIndex        PageKind = 3 // serialized record-layer hash table
	KindCheckpoint   PageKind = 4 // directory checkpoint segment
)

// SpareSizeUsed is the number of spare-area bytes the layout consumes:
// kind (1) + owner record pointer (5) + extent segment index (2).
const SpareSizeUsed = 1 + 5 + 2

// EncodeSpare packs the page classification written to a page's spare
// area. For continuation pages, owner is the head pair's record pointer
// and seg the 1-based continuation index; both are zero otherwise.
func EncodeSpare(kind PageKind, owner RP, seg int) []byte {
	b := make([]byte, SpareSizeUsed)
	b[0] = byte(kind)
	v := uint64(owner)
	b[1] = byte(v)
	b[2] = byte(v >> 8)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 32)
	binary.LittleEndian.PutUint16(b[6:8], uint16(seg))
	return b
}

// DecodeSpare parses a spare area written by EncodeSpare.
func DecodeSpare(spare []byte) (kind PageKind, owner RP, seg int, err error) {
	if len(spare) < SpareSizeUsed {
		return 0, 0, 0, fmt.Errorf("%w: spare area %d bytes", ErrCorrupt, len(spare))
	}
	kind = PageKind(spare[0])
	owner = RP(uint64(spare[1]) | uint64(spare[2])<<8 | uint64(spare[3])<<16 |
		uint64(spare[4])<<24 | uint64(spare[5])<<32)
	seg = int(binary.LittleEndian.Uint16(spare[6:8]))
	return kind, owner, seg, nil
}

// EncodeDataSpare packs a KindData spare area carrying the page's base
// write epoch in the 7 bytes EncodeSpare would zero (data pages have no
// owner pointer or segment index), keeping the spare byte-length
// identical to v1. Epochs are capped at 56 bits.
func EncodeDataSpare(baseEpoch uint64) []byte {
	if baseEpoch > MaxBaseEpoch {
		panic("layout: base epoch exceeds 56 bits")
	}
	b := make([]byte, SpareSizeUsed)
	b[0] = byte(KindData)
	for i := 0; i < 7; i++ {
		b[1+i] = byte(baseEpoch >> (8 * i))
	}
	return b
}

// DataSpareEpoch extracts the base write epoch from a KindData spare
// area. Pages written before layout v2 carry zeros there, so they decode
// as base epoch 0 — visible to every snapshot, the compatibility shim.
func DataSpareEpoch(spare []byte) uint64 {
	if len(spare) < SpareSizeUsed || PageKind(spare[0]) != KindData {
		return 0
	}
	var e uint64
	for i := 0; i < 7; i++ {
		e |= uint64(spare[1+i]) << (8 * i)
	}
	return e
}
