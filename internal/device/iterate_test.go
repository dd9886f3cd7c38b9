package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/nand"
)

// scanPrefixLen is the iterator-mode prefix length of the scan tests:
// keys are an 8-byte group name followed by a 4-digit member number.
const scanPrefixLen = 8

var scanScheme = index.SigScheme{Bits: 64, PrefixLen: scanPrefixLen}

// scanNAND is smallNAND with four times the blocks (16 MiB), so a few
// thousand pairs and a handful of multi-page values fit without GC
// pressure deciding what the test sees.
func scanNAND() *nand.Config {
	c := smallNAND()
	c.BlocksPerDie = 64
	return c
}

// scanOracle is the map model the scan tests compare against.
type scanOracle map[string][]byte

// check scans prefix on d and requires exactly the oracle's keys with
// that prefix, in key order, each with the newest value.
func (o scanOracle) check(t *testing.T, d *Device, prefix string) []IterEntry {
	t.Helper()
	got, _, err := d.Iterate(d.Now(), []byte(prefix), true)
	if err != nil {
		t.Fatalf("Iterate(%q): %v", prefix, err)
	}
	o.compare(t, got, prefix)
	return got
}

func (o scanOracle) compare(t *testing.T, got []IterEntry, prefix string) {
	t.Helper()
	var want []string
	for k := range o {
		if strings.HasPrefix(k, prefix) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("scan %q: %d entries, oracle has %d", prefix, len(got), len(want))
	}
	for i, e := range got {
		if string(e.Key) != want[i] {
			t.Fatalf("scan %q entry %d: key %q, oracle %q", prefix, i, e.Key, want[i])
		}
		if !bytes.Equal(e.Value, o[want[i]]) {
			t.Fatalf("scan %q: key %q has a %d-byte value, oracle's newest has %d",
				prefix, e.Key, len(e.Value), len(o[want[i]]))
		}
	}
}

// bufferedLive reports whether an open page of d holds the newest
// version of a live oracle key with prefix: a pair not yet on flash.
func bufferedLive(t *testing.T, d *Device, o scanOracle, prefix string) bool {
	t.Helper()
	for _, w := range []*logWriter{&d.fg, &d.gcw} {
		for slot := 0; slot < w.builder.Count(); slot++ {
			hdr, k, v, err := w.builder.PairAt(slot)
			if err != nil {
				t.Fatalf("%s open page slot %d: %v", w.name, slot, err)
			}
			if want, live := o[string(k)]; live && !hdr.Tombstone() && strings.HasPrefix(string(k), prefix) && bytes.Equal(v, want) {
				return true
			}
		}
	}
	return false
}

// collidingPrefixes finds two different scanPrefixLen-byte prefixes whose
// low-32 prefix hashes are equal, by birthday search: 32 hash bits make a
// pair likely within ~10^5 candidates. The hash is seeded by the scheme
// alone, so the pair is the same on every run.
func collidingPrefixes(t *testing.T) (a, b string) {
	t.Helper()
	seen := make(map[uint32]string)
	for i := 0; i < 400_000; i++ {
		p := fmt.Sprintf("c%07d", i)
		low := scanScheme.PrefixLow([]byte(p))
		if q, ok := seen[low]; ok {
			return q, p
		}
		seen[low] = p
	}
	t.Fatal("no low-32 collision among 400000 prefixes")
	return "", ""
}

// TestIterateDifferential drives a seeded op stream — inserts that grow
// the index through several re-configurations, overwrites, deletes,
// multi-page values — against a map oracle on RHIK (HaltResize and
// incremental) and both baselines, scanning throughout: at every
// directory size from the first on, while a migration is in
// flight, with the group's newest records still in the open page buffer,
// with a prefix longer than PrefixLen, and on two prefixes whose
// signature low halves collide. Every scan must return exactly its own
// live keys, sorted, newest values.
func TestIterateDifferential(t *testing.T) {
	// A group's members are numbered from its base. Equal prefix hashes
	// and equal suffixes would be equal signatures — the paper's
	// uncorrectable collision, refused at Store — so the colliding groups
	// number their members apart.
	type group struct {
		prefix string
		base   int
	}
	colA, colB := collidingPrefixes(t)
	groups := []group{{colA, 0}, {colB, 5000}}
	for g := 0; g < 24; g++ {
		groups = append(groups, group{fmt.Sprintf("grp%04d:", g), 0})
	}
	engines := []struct {
		name string
		mut  func(*Config)
	}{
		{"rhik", func(c *Config) { c.HaltResize = true }},
		{"rhik-incremental", func(*Config) {}},
		{"mlhash", func(c *Config) { c.Index = IndexMultiLevel }},
		{"lsm", func(c *Config) { c.Index = IndexLSM }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			d := openSmall(t, func(c *Config) {
				c.NAND = scanNAND()
				c.SigScheme = scanScheme
				eng.mut(c)
			})
			rh, _ := d.idx.(*core.RHIK)
			rng := rand.New(rand.NewSource(21))
			oracle := scanOracle{}
			var overwrites, deletes, midMigration, pending, longer, extents int
			scannedAt := map[int]bool{} // directory doublings seen by some scan

			scan := func(prefix string) {
				t.Helper()
				if bufferedLive(t, d, oracle, prefix) {
					pending++
				}
				if rh != nil && migrating(rh) {
					midMigration++
				}
				scannedAt[len(d.ResizeEvents())] = true
				for _, e := range oracle.check(t, d, prefix) {
					if len(e.Value) > d.Geometry().PageSize {
						extents++
					}
				}
			}

			for op := 0; op < 6000; op++ {
				g := groups[rng.Intn(len(groups))]
				k := fmt.Sprintf("%s%04d", g.prefix, g.base+rng.Intn(150))
				switch r := rng.Intn(100); {
				case r < 70:
					n := 16 + rng.Intn(200)
					if rng.Intn(150) == 0 {
						n = 2*d.Geometry().PageSize + rng.Intn(5000) // three-page extent
					}
					v := val(op, n)
					if oracle[k] != nil {
						overwrites++
					}
					mustStore(t, d, []byte(k), v)
					oracle[k] = v
					if rh != nil && migrating(rh) || rng.Intn(20) == 0 {
						scan(g.prefix) // k itself is still in the open page buffer
					}
				case r < 85:
					_, err := d.Delete(d.Now(), []byte(k))
					if _, live := oracle[k]; live {
						if err != nil {
							t.Fatalf("Delete(%q): %v", k, err)
						}
						deletes++
						delete(oracle, k)
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("Delete of absent %q: %v", k, err)
					}
				case r < 95:
					scan(g.prefix)
				default:
					longer++
					scan(fmt.Sprintf("%s%02d", g.prefix, g.base/100+1)) // members base+100..149 only
				}
			}
			if err := d.FlushData(); err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				scan(g.prefix)
			}
			if len(oracle.check(t, d, colA)) == 0 || len(oracle.check(t, d, colB)) == 0 {
				t.Fatal("a colliding prefix group is empty: the collision case went unexercised")
			}

			t.Logf("%d live keys, %d doublings; scans: %d sizes, %d mid-migration, %d over pending records, %d longer-prefix; %d overwrites, %d deletes, %d extent values returned",
				len(oracle), len(d.ResizeEvents()), len(scannedAt), midMigration, pending, longer, overwrites, deletes, extents)
			if overwrites == 0 || deletes == 0 || pending == 0 || longer == 0 || extents == 0 {
				t.Fatalf("op stream missed a case: %d overwrites, %d deletes, %d scans over pending records, %d longer-prefix scans, %d extent values returned",
					overwrites, deletes, pending, longer, extents)
			}
			if rh == nil {
				return
			}
			resizes := len(d.ResizeEvents())
			if resizes < 3 {
				t.Fatalf("only %d directory doublings", resizes)
			}
			for n := 0; n <= resizes; n++ {
				if !scannedAt[n] {
					t.Fatalf("no scan ran after %d of %d doublings", n, resizes)
				}
			}
			if !d.cfg.HaltResize && midMigration == 0 {
				t.Fatal("no scan ran during a migration")
			}
		})
	}
}

// TestScanReadsFollowGroupNotBucket pins the cost model: a scan reads at
// most one index page plus the distinct data pages its group occupies,
// so the same 256-key group costs the same inside a 5 000-record and a
// 100 000-record store — it does not pay for the other prefix groups its
// directory bucket holds.
func TestScanReadsFollowGroupNotBucket(t *testing.T) {
	const group = "thegroup"
	cost := func(records int) (dataReads, groupPages int64) {
		t.Helper()
		d, err := Open(Config{Capacity: 256 << 20, SigScheme: scanScheme})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		oracle := scanOracle{}
		for i := 0; i < 256; i++ {
			k, v := fmt.Sprintf("%s%04d", group, i), val(i, 300)
			mustStore(t, d, []byte(k), v)
			oracle[k] = v
		}
		for i := 256; i < records; i++ {
			mustStore(t, d, []byte(fmt.Sprintf("f%06d:%04d", i/64, i%64)), val(i, 64))
		}
		if err := d.FlushData(); err != nil {
			t.Fatal(err)
		}
		pages := map[uint64]bool{}
		for k := range oracle {
			rp, ok, err := d.idx.Lookup(d.scheme.Compute([]byte(k)))
			if err != nil || !ok {
				t.Fatalf("Lookup(%q) = %v, %v", k, ok, err)
			}
			pages[layout.RP(rp).Page()] = true
		}
		reads := d.FlashStats().Reads
		d.env.reads = 0
		oracle.check(t, d, group)
		reads, meta := d.FlashStats().Reads-reads, d.env.reads
		if meta > 1 {
			t.Fatalf("%d records: scan read %d index pages, want <= 1", records, meta)
		}
		return reads - meta, int64(len(pages))
	}
	small, smallPages := cost(5_000)
	large, largePages := cost(100_000)
	if small > smallPages || large > largePages {
		t.Fatalf("data-page reads %d (5k store) and %d (100k store) exceed the group's %d and %d distinct pages",
			small, large, smallPages, largePages)
	}
	if small != large {
		t.Fatalf("the same group cost %d data-page reads in the 5k store and %d in the 100k store", small, large)
	}
}

// TestIteratePrefixTooShort: signatures group keys by their first
// PrefixLen bytes, so a shorter prefix hashes to an unrelated bucket. It
// must be refused — before any simulated-time charge or counter — not
// answered with whatever that bucket holds.
func TestIteratePrefixTooShort(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.SigScheme = scanScheme })
	for i := 0; i < 50; i++ {
		mustStore(t, d, []byte(fmt.Sprintf("grp00001%04d", i)), val(i, 16))
	}
	now := d.Now()
	for _, prefix := range []string{"", "g", "grp0000"} {
		got, at, err := d.Iterate(now+1000, []byte(prefix), true)
		if !errors.Is(err, ErrPrefixTooShort) || got != nil {
			t.Fatalf("Iterate(%q) = %d entries, %v; want ErrPrefixTooShort", prefix, len(got), err)
		}
		if at != now || d.Now() != now || d.Stats().Iterates != 0 {
			t.Fatalf("refused scan moved the clock (%v -> %v) or counted (%d)", now, d.Now(), d.Stats().Iterates)
		}
	}
	if got, _, err := d.Iterate(now, []byte("grp00001"), false); err != nil || len(got) != 50 {
		t.Fatalf("exact-length prefix: %d entries, %v", len(got), err)
	}
}

// TestSnapshotScanMatchesIterate: on a quiesced store a snapshot's prefix
// scan and the live scan are the same sweep over the same records —
// entry for entry — and the snapshot, which reads its frozen view
// instead of the index, never costs more flash reads. Prefixes the live
// scan refuses (shorter than PrefixLen, nil) still work on a snapshot.
func TestSnapshotScanMatchesIterate(t *testing.T) {
	d := openSmall(t, func(c *Config) {
		c.NAND = scanNAND()
		c.SigScheme = scanScheme
	})
	oracle := scanOracle{}
	for i := 0; i < 3000; i++ {
		k, v := fmt.Sprintf("grp%04d:%04d", i%20, i/20), val(i, 40+i%200)
		mustStore(t, d, []byte(k), v)
		oracle[k] = v
	}
	big := val(7, 3*d.Geometry().PageSize)
	mustStore(t, d, []byte("grp0003:big"), big)
	oracle["grp0003:big"] = big
	for i := 0; i < 3000; i += 7 {
		k := fmt.Sprintf("grp%04d:%04d", i%20, i/20)
		if _, err := d.Delete(d.Now(), []byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(oracle, k)
	}
	s, err := d.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()

	for _, prefix := range []string{"grp0003:", "grp0011:", "grp0011:00", "nosuchgr"} {
		before := d.FlashStats().Reads
		live := oracle.check(t, d, prefix)
		liveReads := d.FlashStats().Reads - before
		before = d.FlashStats().Reads
		snap, _, err := s.Scan(d.Now(), []byte(prefix), true)
		if err != nil {
			t.Fatal(err)
		}
		snapReads := d.FlashStats().Reads - before
		oracle.compare(t, snap, prefix)
		if len(snap) != len(live) {
			t.Fatalf("scan %q: snapshot %d entries, live %d", prefix, len(snap), len(live))
		}
		if snapReads > liveReads {
			t.Fatalf("scan %q: snapshot cost %d flash reads, live scan %d", prefix, snapReads, liveReads)
		}
	}
	for _, prefix := range []string{"", "grp", "grp001"} {
		snap, _, err := s.Scan(d.Now(), []byte(prefix), true)
		if err != nil {
			t.Fatal(err)
		}
		oracle.compare(t, snap, prefix)
	}
}
