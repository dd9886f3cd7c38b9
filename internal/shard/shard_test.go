package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/index"
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
