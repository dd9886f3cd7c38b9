package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hopscotch"
	"repro/internal/index"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newSet(t *testing.T, n int) *Set {
	t.Helper()
	set, err := New(n, device.Config{Capacity: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestRouterCoversAllShards checks the high-bit router actually spreads
// a uniform key population over every shard, with no shard starved.
func TestRouterCoversAllShards(t *testing.T) {
	set := newSet(t, 8)
	hits := make([]int, 8)
	const n = 4000
	for i := 0; i < n; i++ {
		hits[set.RouteKey(workload.KeyBytes(uint64(i)))]++
	}
	for i, h := range hits {
		// Uniform expectation is n/8 = 500; allow wide slack.
		if h < n/8/2 || h > n/8*2 {
			t.Fatalf("shard %d got %d of %d keys: router skewed (%v)", i, h, n, hits)
		}
	}
}

// TestRouteIsStable: the same key always routes to the same shard, and
// the route matches where Store actually placed it.
func TestRouteIsStable(t *testing.T) {
	set := newSet(t, 4)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("stable-%d", i))
		want := set.RouteKey(key)
		if err := set.Store(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if got := set.RouteKey(key); got != want {
			t.Fatalf("route of %q moved: %d -> %d", key, want, got)
		}
		// The owning shard's device must hold the record.
		if set.Shard(want).Device().Stats().Stores == 0 {
			t.Fatalf("shard %d has no stores after owning %q", want, key)
		}
	}
}

// TestRejectsBadShardCounts rejects zero, negative, and non-power-of-two.
func TestRejectsBadShardCounts(t *testing.T) {
	for _, n := range []int{0, -2, 3, 5, 12} {
		if _, err := New(n, device.Config{Capacity: 16 << 20}); err == nil {
			t.Fatalf("New(%d) accepted", n)
		}
	}
}

// TestElapsedIsMaxOfShardClocks: loading one shard hard must not inflate
// the merged clock by the idle shards, and the merged clock equals the
// busiest shard's.
func TestElapsedIsMaxOfShardClocks(t *testing.T) {
	set := newSet(t, 2)
	// Drive keys until both shards have seen at least one op.
	var perShard [2]int
	for i := 0; perShard[0] == 0 || perShard[1] == 0; i++ {
		key := workload.KeyBytes(uint64(i))
		if err := set.Store(key, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		perShard[set.RouteKey(key)]++
	}
	var want sim.Time
	for i := 0; i < 2; i++ {
		sh := set.Shard(i)
		tl := sh.dev.Drain()
		if last := sh.last.Load(); last > tl {
			tl = last
		}
		if tl > want {
			want = tl
		}
	}
	if got := set.Elapsed(); got != sim.Duration(want) {
		t.Fatalf("Elapsed=%v, want max shard clock %v", got, sim.Duration(want))
	}
}

// TestApplyJoinsSubmissionOrder: a batch spanning all shards returns
// values and errors indexed exactly like the submitted ops.
func TestApplyJoinsSubmissionOrder(t *testing.T) {
	set := newSet(t, 4)
	var ops []Op
	const n = 64
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: workload.OpStore,
			Key:   []byte(fmt.Sprintf("bk-%03d", i)),
			Value: []byte(fmt.Sprintf("bv-%03d", i))})
	}
	if res := set.Apply(ops, 0); res.Elapsed <= 0 {
		t.Fatalf("store batch elapsed %v", res.Elapsed)
	}
	ops = ops[:0]
	for i := n - 1; i >= 0; i-- { // reversed order to catch index mixups
		ops = append(ops, Op{Kind: workload.OpRetrieve, Key: []byte(fmt.Sprintf("bk-%03d", i))})
	}
	res := set.Apply(ops, 0)
	for j := 0; j < n; j++ {
		want := fmt.Sprintf("bv-%03d", n-1-j)
		if res.Errs[j] != nil || string(res.Values[j]) != want {
			t.Fatalf("slot %d = (%q, %v), want %q", j, res.Values[j], res.Errs[j], want)
		}
	}
}

// TestMergeSortedInterleaves exercises the iterator merge directly.
func TestMergeSortedInterleaves(t *testing.T) {
	mk := func(keys ...string) []device.IterEntry {
		out := make([]device.IterEntry, len(keys))
		for i, k := range keys {
			out[i] = device.IterEntry{Key: []byte(k)}
		}
		return out
	}
	got := mergeSorted([][]device.IterEntry{
		mk("a", "d", "g"),
		nil,
		mk("b", "e"),
		mk("c", "f", "h", "i"),
	})
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i].Key) != w {
			t.Fatalf("merged[%d] = %q, want %q", i, got[i].Key, w)
		}
	}
}

// TestIteratePrefixTooShort: a prefix shorter than the signature scheme's
// PrefixLen selects no signature group on any shard, so the set refuses
// it — counting no scan — instead of merging whatever the shards' wrong
// buckets hold; at PrefixLen and beyond the fan-out returns the group.
func TestIteratePrefixTooShort(t *testing.T) {
	set, err := New(4, device.Config{
		Capacity:  16 << 20,
		SigScheme: index.SigScheme{Bits: 64, PrefixLen: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 200; i++ {
		if err := set.Store([]byte(fmt.Sprintf("grp%03d:%03d", i%4, i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{"", "g", "grp00"} {
		if got, err := set.Iterate([]byte(prefix)); !errors.Is(err, device.ErrPrefixTooShort) || got != nil {
			t.Fatalf("Iterate(%q) = %d entries, %v; want ErrPrefixTooShort", prefix, len(got), err)
		}
	}
	if n := set.Stats().Dev.Iterates; n != 0 {
		t.Fatalf("refused scans counted %d device iterates", n)
	}
	for prefix, want := range map[string]int{"grp001": 50, "grp001:1": 25} {
		if got, err := set.Iterate([]byte(prefix)); err != nil || len(got) != want {
			t.Fatalf("Iterate(%q) = %d entries, %v; want %d", prefix, len(got), err, want)
		}
	}
}

// TestCloseErrorsIdentifyShards verifies that per-shard lifecycle
// failures stay individually unwrappable: each joined error names its
// shard and still matches the underlying cause with errors.Is.
func TestCloseErrorsIdentifyShards(t *testing.T) {
	set := newSet(t, 4)
	if err := set.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// Every shard is now closed, so a second Close fails on all four.
	err := set.Close()
	if err == nil {
		t.Fatal("second close succeeded")
	}
	if !errors.Is(err, device.ErrClosed) {
		t.Fatalf("joined error does not match device.ErrClosed: %v", err)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("close error is not an errors.Join aggregate: %T", err)
	}
	parts := joined.Unwrap()
	if len(parts) != set.N() {
		t.Fatalf("got %d per-shard errors, want %d: %v", len(parts), set.N(), err)
	}
	for i, pe := range parts {
		if !errors.Is(pe, device.ErrClosed) {
			t.Errorf("shard %d error lost its cause: %v", i, pe)
		}
		if want := fmt.Sprintf("shard %d:", i); !strings.Contains(pe.Error(), want) {
			t.Errorf("shard %d error does not name its shard: %v", i, pe)
		}
	}
}

// TestTryReadRefusesWhatLockedReadServes pins the split between the two
// read tiers. TryRetrieveAppend and TryExist refuse with
// ErrNeedExclusive, leaving every clock and counter as it was, exactly
// the reads that RetrieveAppend and Exist then serve under the shard
// lock: a value still in the open page buffer, a cache miss whose read
// installs the record table (the cache has room, or its CLOCK victim is
// dirty), and any read of an index without a lock-free tier. They serve
// everything else themselves: reads of resident tables, and misses the
// locked read answers from the bucket's page image, leaving the cache
// alone. Those charge exactly what the locked read charges, which the
// image case checks against a twin set that serves the same reads under
// the lock.
func TestTryReadRefusesWhatLockedReadServes(t *testing.T) {
	const keys = 2000
	geo := nand.DefaultConfig(64 << 20)
	table := int64(hopscotch.EncodedSize(core.RecordsPerTable(geo.PageSize, false)))
	// 2 000 keys of AnticipatedKeys 1<<14 spread over 16 buckets.
	cold := device.Config{Capacity: 64 << 20, AnticipatedKeys: 1 << 14}
	withCache := func(budget int64) device.Config { c := cold; c.CacheBudget = budget; return c }
	var probeAll []int
	for i := 0; i < keys-1; i += keys / 32 {
		probeAll = append(probeAll, i)
	}
	cases := []struct {
		name    string
		cfg     device.Config
		flush   bool  // checkpoint after loading: no value stays in a page buffer, no table dirty
		probe   []int // the keys read
		refused bool  // every probed key is refused, not just some
		twin    bool  // every read served lock-free is checked against a twin set
		image   bool  // some probed key is answered from its page image
	}{
		{name: "resident", cfg: device.Config{Capacity: 64 << 20}, flush: true, probe: []int{0, 1, keys / 2, keys - 1}},
		{name: "open-buffer", cfg: device.Config{Capacity: 64 << 20}, probe: []int{keys - 1}, refused: true},
		// A cache of one table always has room: every miss replaces it.
		{name: "installs-room", cfg: withCache(1), flush: true, probe: []int{0, 1, keys / 2, keys - 1}},
		// Loading leaves every cached table dirty, the victim included, so
		// the first miss installs; what it leaves may be answered from an
		// image.
		{name: "installs-dirty-victim", cfg: withCache(8 * table), probe: probeAll, twin: true},
		{name: "image", cfg: withCache(8 * table), flush: true, probe: probeAll, twin: true, image: true},
		{name: "multi-level", cfg: device.Config{Capacity: 64 << 20, Index: device.IndexMultiLevel}, flush: true, probe: []int{0, keys - 1}, refused: true},
	}
	// Large values fill data pages fast: the newest key sits in the
	// still-open page, the earliest keys are long on flash.
	val := bytes.Repeat([]byte("v"), 12<<10)
	load := func(t *testing.T, cfg device.Config, flush bool) *Set {
		set, err := New(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		for i := 0; i < keys; i++ {
			if err := set.Store(workload.KeyBytes(uint64(i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if flush {
			if err := set.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return set
	}
	// charged is what a read charges; served adds which tier served it.
	type charged struct {
		now, last         sim.Time
		retrieves, exists int64
		meta, metaZero    uint64 // metadata-read samples, and those of 0 reads
		flash             int64
	}
	type served struct {
		charged
		opt, retry, fallback int64
	}
	measure := func(set *Set) served {
		sh, st := set.Shard(0), set.Stats()
		return served{charged{sh.dev.Now(), sh.last.Load(), st.Dev.Retrieves, st.Dev.Exists,
			st.MetaPerOp.Count(), st.MetaPerOp.CountAtMost(0), st.Flash.Reads},
			st.OptimisticReads, st.OptimisticRetries, st.FallbackExclusive}
	}
	delta := func(a, b charged) charged {
		return charged{b.now - a.now, b.last - a.last, b.retrieves - a.retrieves, b.exists - a.exists,
			b.meta - a.meta, b.metaZero - a.metaZero, b.flash - a.flash}
	}
	locked := func(set *Set, k []byte) (v []byte, ok bool, err error) {
		sh := set.Shard(0)
		err = sh.exclusive(func(at sim.Time) (done sim.Time, err error) {
			if v, done, err = sh.dev.RetrieveAppend(at, k, nil); err != nil {
				return done, err
			}
			ok, done, err = sh.dev.Exist(done, k)
			return done, err
		})
		return v, ok, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := load(t, tc.cfg, tc.flush)
			var twin *Set
			if tc.twin {
				twin = load(t, tc.cfg, tc.flush)
			}
			refusals, fromImage := 0, 0
			for _, i := range tc.probe {
				k := workload.KeyBytes(uint64(i))
				before := measure(set)
				v, err := set.TryRetrieveAppend(nil, k)
				refused := errors.Is(err, index.ErrNeedExclusive)
				if !refused && (err != nil || !bytes.Equal(v, val)) {
					t.Fatalf("key %d: TryRetrieveAppend = (%d bytes, %v)", i, len(v), err)
				}
				ok, xerr := set.TryExist(k)
				if errors.Is(xerr, index.ErrNeedExclusive) != refused || !refused && (xerr != nil || !ok) {
					t.Fatalf("key %d: TryRetrieveAppend refused=%v but TryExist returned %v, %v", i, refused, ok, xerr)
				}
				if tc.refused && !refused {
					t.Fatalf("key %d: served lock-free, want refused", i)
				}
				if !refused {
					after := measure(set)
					if after.opt-before.opt != 2 || after.fallback != before.fallback {
						t.Fatalf("key %d: %+v -> %+v, want two lock-free reads", i, before, after)
					}
					d := delta(before.charged, after.charged)
					if d.meta > d.metaZero {
						fromImage++
					}
					if twin == nil {
						if d.meta > d.metaZero {
							t.Fatalf("key %d: answered from the page image, want refused or resident", i)
						}
						continue
					}
					// The same two reads under the lock on the twin, whose
					// state matches: a read answered from the image leaves
					// the cache as it found it, in either tier.
					tb := measure(twin)
					tv, tok, err := locked(twin, k)
					if err != nil || !bytes.Equal(tv, val) || !tok {
						t.Fatalf("key %d: locked twin read = (%d bytes, %v, %v)", i, len(tv), tok, err)
					}
					if td := delta(tb.charged, measure(twin).charged); td != d {
						t.Fatalf("key %d: lock-free reads charged %+v, the same reads under the lock %+v", i, d, td)
					}
					continue
				}
				refusals++
				if after := measure(set); after != before {
					t.Fatalf("key %d: refusals charged: %+v -> %+v", i, before, after)
				}
				v, err = set.RetrieveAppend(nil, k)
				if err != nil || !bytes.Equal(v, val) {
					t.Fatalf("key %d: RetrieveAppend = (%d bytes, %v)", i, len(v), err)
				}
				if got := measure(set).fallback - before.fallback; got != 1 {
					t.Fatalf("key %d: %d reads took the lock after the refusal, want 1", i, got)
				}
				// The locked read may have cached the table, so Exist is
				// served by whichever tier can.
				if ok, err := set.Exist(k); err != nil || !ok {
					t.Fatalf("key %d: Exist = %v, %v", i, ok, err)
				}
				if twin != nil {
					if _, _, err := locked(twin, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			switch {
			case tc.name == "resident" && refusals > 0:
				t.Fatalf("%d resident reads refused", refusals)
			case tc.image && fromImage == 0:
				t.Fatal("no read was answered from its page image")
			case !tc.image && tc.name != "resident" && refusals == 0:
				t.Fatal("no read was refused: the case does not exercise the locked tier")
			}
			t.Logf("%d of %d keys refused, %d answered from the page image", refusals, len(tc.probe), fromImage)
		})
	}
}
