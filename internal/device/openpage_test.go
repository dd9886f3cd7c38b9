package device

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/layout"
	"repro/internal/nand"
)

// TestStoreZeroAlloc pins the write path's one copy: a PUT packs its
// pair into the open page that will be programmed and allocates nothing
// on the device. The device is warmed until garbage collection has
// erased blocks and the erased blocks' page buffers are recycled; what
// is left per page program or per collection amortizes below one
// allocation per PUT, which AllocsPerRun's integer average rounds away.
func TestStoreZeroAlloc(t *testing.T) {
	for _, size := range []int{128, 4096} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			geo := smallNAND()
			geo.PageSize = 32 * 1024 // the default page: 4 KiB values share it
			d := openSmall(t, func(c *Config) { c.NAND = geo })
			const keys = 64
			ks := make([][]byte, keys)
			for i := range ks {
				ks[i] = key(i)
			}
			v := val(1, size)
			i := 0
			put := func() {
				if _, err := d.Store(d.Now(), ks[i%keys], v); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for d.Stats().GCRuns < 3*int64(geo.TotalBlocks()) {
				put()
			}
			t.Logf("warmed with %d stores, %d GC runs", i, d.Stats().GCRuns)
			if n := testing.AllocsPerRun(500, put); n != 0 {
				t.Fatalf("Store of %d-byte values: %v allocs/op, want 0", size, n)
			}
		})
	}
}

// TestOpenPageReadsMatchFlash reads one pair still in the foreground
// writer's open page and one in the GC writer's, through the locked
// Retrieve, Exist and Iterate and through readPair, then flushes both
// pages and reads them again from flash: bytes and header (sequence
// number, flags) must not change.
func TestOpenPageReadsMatchFlash(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.NAND = scanNAND()
		c.SigScheme = scanScheme
	})
	fgKey, gcKey := []byte("grp0001:fg"), []byte("grp0001:gc")
	mustStore(t, d, gcKey, val(1, 300))
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	relocateToGCWriter(t, d, gcKey)
	mustStore(t, d, fgKey, val(2, 200))
	for _, c := range []struct {
		w *logWriter
		k []byte
	}{{&d.fg, fgKey}, {&d.gcw, gcKey}} {
		if d.openWriter(rpOf(t, d, c.k)) != c.w {
			t.Fatalf("%q is not in %s's open page", c.k, c.w.name)
		}
	}

	type view struct {
		hdr     layout.PairHeader
		value   []byte
		exists  bool
		scanned []IterEntry
	}
	read := func(k []byte) view {
		t.Helper()
		hdr, _, value, _, err := d.readPair(rpOf(t, d, k), true, true)
		if err != nil {
			t.Fatal(err)
		}
		got := mustGet(t, d, k)
		if !bytes.Equal(got, value) {
			t.Fatalf("Retrieve(%q) and readPair disagree", k)
		}
		ok, _, err := d.Exist(d.Now(), k)
		if err != nil {
			t.Fatal(err)
		}
		scanned, _, err := d.Iterate(d.Now(), k[:scanScheme.PrefixLen], true)
		if err != nil {
			t.Fatal(err)
		}
		return view{hdr: hdr, value: got, exists: ok, scanned: scanned}
	}
	before := map[string]view{string(fgKey): read(fgKey), string(gcKey): read(gcKey)}
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	for k, b := range before {
		rp := rpOf(t, d, []byte(k))
		if !d.flash.PageReadable(nand.PPA(rp.Page())) {
			t.Fatalf("%q is not on flash after FlushData", k)
		}
		a := read([]byte(k))
		if a.hdr != b.hdr || !bytes.Equal(a.value, b.value) || a.exists != b.exists || !b.exists {
			t.Fatalf("%q: open page read (%+v, %d bytes, exists %v), flash read (%+v, %d bytes, exists %v)",
				k, b.hdr, len(b.value), b.exists, a.hdr, len(a.value), a.exists)
		}
		if len(a.scanned) != 2 || len(b.scanned) != 2 {
			t.Fatalf("%q: scans returned %d and %d entries, want 2", k, len(b.scanned), len(a.scanned))
		}
		for i := range a.scanned {
			if !bytes.Equal(a.scanned[i].Key, b.scanned[i].Key) || !bytes.Equal(a.scanned[i].Value, b.scanned[i].Value) {
				t.Fatalf("%q: scan entry %d changed across the flush", k, i)
			}
		}
	}
	if before[string(fgKey)].hdr.Seq <= before[string(gcKey)].hdr.Seq {
		t.Fatal("the relocated copy's sequence number is not below the later store's")
	}
}

// rpOf is the record pointer d's index holds for k.
func rpOf(t *testing.T, d *Device, k []byte) layout.RP {
	t.Helper()
	rp, ok, err := d.idx.Lookup(d.scheme.Compute(k))
	if err != nil || !ok {
		t.Fatalf("index lookup of %q: (%v, %v)", k, ok, err)
	}
	return layout.RP(rp)
}

// relocateToGCWriter moves k's flash pair into the GC writer's open page
// as collectKV does, and leaves it there: a collection flushes that page
// before its erase, so only a test can hold a pair in it between
// commands.
func relocateToGCWriter(t *testing.T, d *Device, k []byte) {
	t.Helper()
	old := rpOf(t, d, k)
	hdr, key, value, _, err := d.readPair(old, true, true)
	if err != nil {
		t.Fatal(err)
	}
	d.seq++
	sig := d.scheme.Compute(k)
	live := liveSize(len(key), len(value))
	p := layout.Pair{Sig: sig.Lo, Key: key, Value: value, Seq: d.seq, Epoch: d.wepoch.Load() + 1}
	rp, err := d.appendPair(&d.gcw, p, live)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.idx.Insert(sig, uint64(rp)); err != nil {
		t.Fatal(err)
	}
	d.invalidateRP(old, liveSize(hdr.KeyLen, hdr.ValueLen))
}
