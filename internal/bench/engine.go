package bench

import (
	"fmt"
	"time"

	rhik "repro"
	"repro/internal/device"
	"repro/internal/lsmindex"
	"repro/internal/mlhash"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Engine is the adapter surface the cross-engine shootout drives: the
// SNIA-KV op set plus the observability cut every engine must answer.
// A new engine only has to satisfy this interface (and pass the shared
// conformance suite in engine_test.go) to join the shootout table.
type Engine interface {
	// Name labels the engine in reports.
	Name() string
	// Store writes a key-value pair.
	Store(key, value []byte) error
	// Retrieve returns the value stored under key. When the engine
	// supports buffer reuse the value is appended to dst (pass a
	// per-caller buffer for the allocation-free hot path, or nil);
	// callers must use the return value either way.
	Retrieve(dst, key []byte) ([]byte, error)
	// Delete removes key.
	Delete(key []byte) error
	// Exist reports whether key is stored.
	Exist(key []byte) (bool, error)
	// Iterate enumerates keys sharing prefix, sorted, with values.
	Iterate(prefix []byte) ([]device.IterEntry, error)
	// Stats snapshots the engine's counters and latency percentiles.
	Stats() EngineStats
	// Elapsed reports total simulated device time consumed so far.
	Elapsed() sim.Duration
	// ResetOpStats clears per-op histograms and cache counters between
	// experiment phases (load vs. measured run).
	ResetOpStats()
	// Close shuts the engine down.
	Close() error
}

// SnapshotEngine is the optional capability surface for engines whose
// front-end supports MVCC snapshots. The shard.Set-backed adapters all
// expose it; whether a capture succeeds then depends on the index —
// only RHIK can enumerate its records, so the baselines refuse with
// device.ErrNoSnapshot rather than serving an inconsistent view.
type SnapshotEngine interface {
	Snapshot() (*shard.SetSnapshot, error)
}

// EngineStats is the per-engine observability snapshot the shootout
// reports per cell. Latencies are simulated nanoseconds.
type EngineStats struct {
	Records int64

	RetrieveP50, RetrieveP99 int64
	StoreP50, StoreP99       int64

	// FlashReadsPerGet is the mean metadata flash reads per retrieve
	// lookup — the cost RHIK bounds at one.
	FlashReadsPerGet float64

	FlashReads, FlashPrograms int64
	Resizes                   int
	Collisions                int64
	CacheHits, CacheMisses    int64

	// Cache-tier counters; all zero when the tiered cache is off.
	AdmissionRejects                 int64
	ValueCacheHits, ValueCacheMisses int64
	PrefetchHits                     int64

	// Detail carries engine-specific counters (LSM flushes/compactions/
	// runs, mlhash levels) that have no cross-engine meaning.
	Detail map[string]int64
}

// EngineConfig sizes a freshly opened engine. All engines receive the
// same configuration so shootout cells compare like-for-like.
type EngineConfig struct {
	// Capacity is the emulated device capacity (default 256 MiB).
	Capacity int64
	// CacheBudget bounds index DRAM (default 10 MiB); shrink it to put
	// the indexes under the cache pressure Fig. 5 studies.
	CacheBudget int64
	// Shards is the front-end shard count (default 1: one device, one
	// timeline, directly comparable across engines).
	Shards int
	// PrefixLen enables iterator-mode signatures for scan workloads
	// (default workload.DefaultScanPrefixLen).
	PrefixLen int
	// AnticipatedKeys pre-sizes RHIK's directory (0 = grow by resize).
	AnticipatedKeys int64
	// ValueCacheBudget enables the hot-value DRAM tier when positive.
	// Cells comparing against an untiered baseline must shrink
	// CacheBudget by the same amount so total DRAM stays equal.
	ValueCacheBudget int64
	// CacheAdmission turns on TinyLFU admission for the index-page cache.
	CacheAdmission bool
}

func (c *EngineConfig) applyDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 256 << 20
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 10 << 20
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.PrefixLen == 0 {
		c.PrefixLen = workload.DefaultScanPrefixLen
	}
}

func (c EngineConfig) options(scheme rhik.IndexScheme) rhik.Options {
	return rhik.Options{
		Capacity:          c.Capacity,
		CacheBudget:       c.CacheBudget,
		Shards:            c.Shards,
		Index:             scheme,
		IteratorPrefixLen: c.PrefixLen,
		AnticipatedKeys:   c.AnticipatedKeys,
		ValueCacheBudget:  c.ValueCacheBudget,
		CacheAdmission:    c.CacheAdmission,
	}
}

// EngineSpec names one engine and how to open a fresh instance of it.
type EngineSpec struct {
	Name string
	// Notes documents known asymmetries versus the RHIK baseline; they
	// are copied into the shootout JSON so the table is honest about
	// where the comparison is not like-for-like.
	Notes []string
	Open  func(cfg EngineConfig) (Engine, error)
}

// Engines lists every registered engine in shootout order.
func Engines() []EngineSpec {
	return []EngineSpec{
		{
			Name: "rhik",
			Open: func(cfg EngineConfig) (Engine, error) {
				cfg.applyDefaults()
				db, err := rhik.Open(cfg.options(rhik.RHIK))
				if err != nil {
					return nil, err
				}
				return &facadeEngine{name: "rhik", db: db}, nil
			},
		},
		{
			Name: "rhik-set",
			Notes: []string{
				"same index as rhik behind the raw sharded front-end (RetrieveAppend hot path, no facade value copy)",
			},
			Open: func(cfg EngineConfig) (Engine, error) {
				return openSetEngine("rhik-set", cfg, rhik.RHIK)
			},
		},
		{
			Name: "lsm",
			Notes: []string{
				"PinK-style LSM index: lookups may read one page per run; prefix scans sweep every run page (runs are signature-ordered, prefixes scatter)",
				"reorganization is flushes+compactions (Detail), not directory resizes",
				"the DRAM memtable is charged against CacheBudget (16 B/record): the run-page cache shrinks to the remainder and the memtable flushes early past half the budget, so cells compare like-for-like on total index DRAM",
			},
			Open: func(cfg EngineConfig) (Engine, error) {
				return openSetEngine("lsm", cfg, rhik.LSM)
			},
		},
		{
			Name: "mlhash",
			Notes: []string{
				"Samsung-style multi-level hash: lookups probe up to L levels; prefix scans sweep the whole cascade",
				"capacity grows by materializing levels (Detail), not resizing; full cascade aborts inserts",
			},
			Open: func(cfg EngineConfig) (Engine, error) {
				return openSetEngine("mlhash", cfg, rhik.MultiLevel)
			},
		},
	}
}

// EngineByName resolves a registered engine spec.
func EngineByName(name string) (EngineSpec, error) {
	for _, e := range Engines() {
		if e.Name == name {
			return e, nil
		}
	}
	return EngineSpec{}, fmt.Errorf("bench: unknown engine %q", name)
}

// facadeEngine adapts the public rhik.DB facade.
type facadeEngine struct {
	name string
	db   *rhik.DB
}

func (e *facadeEngine) Name() string                  { return e.name }
func (e *facadeEngine) Store(key, value []byte) error { return e.db.Store(key, value) }

// Retrieve ignores dst: the facade always returns a fresh copy — that
// copy is exactly the overhead the rhik-set adapter measures against.
func (e *facadeEngine) Retrieve(_, key []byte) ([]byte, error) { return e.db.Retrieve(key) }
func (e *facadeEngine) Delete(key []byte) error                { return e.db.Delete(key) }
func (e *facadeEngine) Exist(key []byte) (bool, error)         { return e.db.Exist(key) }
func (e *facadeEngine) Close() error                           { return e.db.Close() }

func (e *facadeEngine) Iterate(prefix []byte) ([]device.IterEntry, error) {
	entries, err := e.db.Iterate(prefix)
	if err != nil {
		return nil, err
	}
	out := make([]device.IterEntry, len(entries))
	for i, en := range entries {
		out[i] = device.IterEntry{Key: en.Key, Value: en.Value}
	}
	return out, nil
}

func (e *facadeEngine) Elapsed() sim.Duration {
	return sim.Duration(e.db.Elapsed() / time.Nanosecond)
}

func (e *facadeEngine) ResetOpStats() { e.db.ResetOpStats() }

func (e *facadeEngine) Stats() EngineStats {
	st := e.db.Stats()
	return EngineStats{
		Records:          st.IndexRecords,
		RetrieveP50:      int64(st.RetrieveP50),
		RetrieveP99:      int64(st.RetrieveP99),
		StoreP50:         int64(st.StoreP50),
		StoreP99:         int64(st.StoreP99),
		FlashReadsPerGet: st.FlashReadsPerGet,
		FlashReads:       st.FlashReads,
		FlashPrograms:    st.FlashPrograms,
		Resizes:          st.Resizes,
		Collisions:       st.CollisionAborts,
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		AdmissionRejects: st.AdmissionRejects,
		ValueCacheHits:   st.ValueCacheHits,
		ValueCacheMisses: st.ValueCacheMisses,
		PrefetchHits:     st.PrefetchHits,
	}
}

// setEngine adapts a raw shard.Set (any index scheme).
type setEngine struct {
	name string
	set  *shard.Set
}

func openSetEngine(name string, cfg EngineConfig, scheme rhik.IndexScheme) (Engine, error) {
	cfg.applyDefaults()
	set, err := rhik.OpenSet(cfg.options(scheme))
	if err != nil {
		return nil, err
	}
	return &setEngine{name: name, set: set}, nil
}

func (e *setEngine) Name() string                   { return e.name }
func (e *setEngine) Store(key, value []byte) error  { return e.set.Store(key, value) }
func (e *setEngine) Delete(key []byte) error        { return e.set.Delete(key) }
func (e *setEngine) Exist(key []byte) (bool, error) { return e.set.Exist(key) }
func (e *setEngine) Close() error                   { return e.set.Close() }
func (e *setEngine) Elapsed() sim.Duration          { return e.set.Elapsed() }

// Retrieve appends the value to dst via RetrieveAppend — with a reused
// caller buffer this is the front-end's allocation-free hot path.
func (e *setEngine) Retrieve(dst, key []byte) ([]byte, error) {
	return e.set.RetrieveAppend(dst, key)
}

func (e *setEngine) Iterate(prefix []byte) ([]device.IterEntry, error) {
	return e.set.Iterate(prefix)
}

// Snapshot captures a consistent MVCC view (SnapshotEngine). Engines
// whose index cannot enumerate records return device.ErrNoSnapshot.
func (e *setEngine) Snapshot() (*shard.SetSnapshot, error) { return e.set.Snapshot() }

func (e *setEngine) ResetOpStats() { e.set.ResetOpStats() }

func (e *setEngine) Stats() EngineStats {
	st := e.set.Stats()
	out := EngineStats{
		Records:          st.Index.Records,
		RetrieveP50:      st.RetrieveLat.Percentile(50),
		RetrieveP99:      st.RetrieveLat.Percentile(99),
		StoreP50:         st.StoreLat.Percentile(50),
		StoreP99:         st.StoreLat.Percentile(99),
		FlashReadsPerGet: st.MetaPerGet.Mean(),
		FlashReads:       st.Flash.Reads,
		FlashPrograms:    st.Flash.Programs,
		Resizes:          st.Index.Resizes,
		Collisions:       st.Dev.CollisionAborts,
		CacheHits:        st.Index.Cache.Hits,
		CacheMisses:      st.Index.Cache.Misses,
		AdmissionRejects: st.Index.Cache.AdmissionRejects,
		ValueCacheHits:   st.Dev.ValueCacheHits,
		ValueCacheMisses: st.Dev.ValueCacheMisses,
		PrefetchHits:     st.Dev.PrefetchHits,
	}
	for i := 0; i < e.set.N(); i++ {
		switch ix := e.set.Shard(i).Device().Index().(type) {
		case *lsmindex.Index:
			if out.Detail == nil {
				out.Detail = make(map[string]int64)
			}
			out.Detail["runs"] += int64(ix.Runs())
			out.Detail["flushes"] += ix.Flushes()
			out.Detail["compactions"] += ix.Compactions()
		case *mlhash.Index:
			if out.Detail == nil {
				out.Detail = make(map[string]int64)
			}
			out.Detail["levels"] += int64(ix.Levels())
		}
	}
	return out
}
