package core

import (
	"fmt"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// ringEnv is an index.Env that never allocates after construction: page
// images live in a fixed ring of buffers, newest overwriting oldest.
// BenchmarkPageIn rewrites every bucket once per pass over the
// directory, so a live page is never more than one pass old and a ring
// of a few passes cannot lose one; ReadPage checks that anyway.
type ringEnv struct {
	clock sim.Clock
	bufs  [][]byte
	owner []nand.PPA
	next  nand.PPA
	reads int64
}

func newRingEnv(slots, pageSize int) *ringEnv {
	e := &ringEnv{bufs: make([][]byte, slots), owner: make([]nand.PPA, slots), next: 1}
	for i := range e.bufs {
		e.bufs[i] = make([]byte, pageSize)
	}
	return e
}

func (e *ringEnv) ReadPage(p nand.PPA) ([]byte, error) {
	i := int(p) % len(e.bufs)
	if e.owner[i] != p {
		return nil, fmt.Errorf("ringEnv: page %d was overwritten by %d", p, e.owner[i])
	}
	e.reads++
	return e.bufs[i], nil
}

func (e *ringEnv) AppendPage(data []byte) (nand.PPA, error) {
	p := e.next
	e.next++
	i := int(p) % len(e.bufs)
	e.owner[i] = p
	copy(e.bufs[i], data)
	return p, nil
}

func (e *ringEnv) Invalidate(nand.PPA)      {}
func (e *ringEnv) ChargeCPU(d sim.Duration) { e.clock.Advance(d) }
func (e *ringEnv) Now() sim.Time            { return e.clock.Now() }

// BenchmarkPageIn times RHIK's whole cache-miss path at the paper's page
// geometry with half the index resident: every operation updates a
// record in a bucket that is not cached, so it evicts a dirty table
// (encode + program), pages the bucket in (read + decode into a pooled
// table) and probes it. The path must not allocate: a 32 KiB image per
// write-back is what made resident memory grow with the op count.
func BenchmarkPageIn(b *testing.B) {
	const (
		pageSize  = 32 * 1024
		buckets   = 16
		perBucket = 1200
	)
	env := newRingEnv(4*buckets, pageSize)
	r, err := New(Config{
		PageSize:        pageSize,
		AnticipatedKeys: buckets * 1927,
		CacheBudget:     buckets / 2 * pageSize,
	}, env)
	if err != nil {
		b.Fatal(err)
	}
	if r.DirEntries() != buckets {
		b.Fatalf("D = %d, want %d", r.DirEntries(), buckets)
	}
	// Signatures walk the buckets round-robin, a cyclic pattern twice the
	// cache's size, so CLOCK misses on every access.
	for i := uint64(0); i < buckets*perBucket; i++ {
		if _, _, err := r.Insert(sig64(i), i); err != nil {
			b.Fatal(err)
		}
	}
	i := uint64(0)
	op := func() {
		if _, replaced, err := r.Insert(sig64(i%(buckets*perBucket)), i); err != nil || !replaced {
			b.Fatalf("update %d: replaced=%v err=%v", i, replaced, err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(4*buckets, op); allocs != 0 {
		b.Fatalf("page-in + write-back allocates %.0f times per op, want 0", allocs)
	}
	reads, appends := env.reads, env.next
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
	b.StopTimer()
	if got := env.reads - reads; got != int64(b.N) {
		b.Fatalf("%d page-ins over %d ops: not measuring the miss path", got, b.N)
	}
	if got := int64(env.next - appends); got != int64(b.N) {
		b.Fatalf("%d write-backs over %d ops: not measuring dirty eviction", got, b.N)
	}
}

// BenchmarkColdGet times a read-only Get that misses the cache at the
// paper's page geometry with half the index resident and every resident
// table clean, so each miss reads the bucket's page and answers from the
// image: no decode, no install, no eviction, no write-back. Like
// BenchmarkPageIn it must not allocate.
func BenchmarkColdGet(b *testing.B) {
	const (
		pageSize  = 32 * 1024
		buckets   = 16
		perBucket = 1200
	)
	env := newRingEnv(4*buckets, pageSize)
	r, err := New(Config{
		PageSize:        pageSize,
		AnticipatedKeys: buckets * 1927,
		CacheBudget:     buckets / 2 * pageSize,
	}, env)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < buckets*perBucket; i++ {
		if _, _, err := r.Insert(sig64(i), i); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	// Only signatures of uncached buckets, so every Get misses.
	var sigs []uint64
	for i := uint64(0); i < buckets*perBucket; i++ {
		if !r.cache.Contains(i % buckets) {
			sigs = append(sigs, i)
		}
	}
	i := 0
	op := func() {
		lo := sigs[i%len(sigs)]
		if rp, ok, err := r.Get(sig64(lo)); err != nil || !ok || rp != lo {
			b.Fatalf("Get(%d) = (%d, %v, %v)", lo, rp, ok, err)
		}
		i++
	}
	if allocs := testing.AllocsPerRun(4*buckets, op); allocs != 0 {
		b.Fatalf("a cold Get allocates %.0f times per op, want 0", allocs)
	}
	reads, appends, evictions := env.reads, env.next, r.CacheStats().Evictions
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
	b.StopTimer()
	if got := env.reads - reads; got != int64(b.N) {
		b.Fatalf("%d page reads over %d ops: not measuring the miss path", got, b.N)
	}
	if env.next != appends || r.CacheStats().Evictions != evictions {
		b.Fatal("a cold Get installed a table: not measuring the probe in place")
	}
}
