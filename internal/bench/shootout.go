package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	rhik "repro"
	"repro/internal/workload"
)

// ShootoutConfig sizes a cross-engine shootout: every (engine ×
// workload) cell runs under identical seeds, so two cells in the same
// column see byte-identical op streams and any difference in the
// numbers is the engine's doing.
type ShootoutConfig struct {
	// Engines and Workloads name the grid axes (defaults: every
	// registered engine × every YCSB core workload).
	Engines   []string `json:"engines"`
	Workloads []string `json:"workloads"`

	// Records preloads this many keys before the measured run
	// (default 50k). Ops is the measured op count (default 100k).
	Records int `json:"records"`
	Ops     int `json:"ops"`

	// Seed drives every generator; the same seed is reused for every
	// cell (default 42).
	Seed int64 `json:"seed"`

	// Value sizes are zipf-skewed over [ValueMin, ValueMax] with
	// ValueTheta (defaults 64 B .. 4 KiB, theta 0.9); ValueMin ==
	// ValueMax gives fixed sizes.
	ValueMin   int     `json:"value_min"`
	ValueMax   int     `json:"value_max"`
	ValueTheta float64 `json:"value_theta"`

	// Theta overrides the key-popularity skew of every workload spec
	// when non-zero (specs default to YCSB's 0.99).
	Theta float64 `json:"theta,omitempty"`

	// Capacity and CacheBudget size each engine (defaults 256 MiB and
	// 512 KiB — small enough that the index does not fit in DRAM, which
	// is the regime where flash-reads-per-GET separates the engines).
	Capacity    int64 `json:"capacity"`
	CacheBudget int64 `json:"cache_budget"`

	// ScanPrefixLen is the iterator-mode prefix length (default
	// workload.DefaultScanPrefixLen: scans cover ≤256-key groups).
	ScanPrefixLen int `json:"scan_prefix_len"`

	// ValueCacheBudget enables the hot-value DRAM tier when positive
	// (default 0: off, matching historical shootouts). For a fair
	// comparison keep CacheBudget + ValueCacheBudget equal to the
	// untiered baseline's CacheBudget.
	ValueCacheBudget int64 `json:"value_cache_budget,omitempty"`
	// CacheAdmission turns on TinyLFU admission for the index-page cache.
	CacheAdmission bool `json:"cache_admission,omitempty"`
}

func (c *ShootoutConfig) applyDefaults() {
	if len(c.Engines) == 0 {
		for _, e := range Engines() {
			c.Engines = append(c.Engines, e.Name)
		}
	}
	if len(c.Workloads) == 0 {
		for _, w := range workload.YCSBWorkloads() {
			c.Workloads = append(c.Workloads, w.Name)
		}
	}
	if c.Records == 0 {
		c.Records = 50_000
	}
	if c.Ops == 0 {
		c.Ops = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.ValueMin == 0 {
		c.ValueMin = 64
	}
	if c.ValueMax == 0 {
		c.ValueMax = 4096
	}
	if c.ValueTheta == 0 {
		c.ValueTheta = 0.9
	}
	if c.Capacity == 0 {
		c.Capacity = 256 << 20
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 512 << 10
	}
	if c.ScanPrefixLen == 0 {
		c.ScanPrefixLen = workload.DefaultScanPrefixLen
	}
}

// Cell is one (engine × workload) shootout result. Latencies and
// throughput are over simulated device time, so they are deterministic
// for a given config and comparable across hosts; WallMs is the only
// host-time figure.
type Cell struct {
	Engine   string `json:"engine"`
	Workload string `json:"workload"`

	Records int `json:"records"`
	Ops     int `json:"ops"`

	// SimElapsedNs is the simulated device time the measured run
	// consumed; ThroughputKops = Ops / SimElapsed.
	SimElapsedNs   int64   `json:"sim_elapsed_ns"`
	ThroughputKops float64 `json:"throughput_kops"`

	RetrieveP50Ns int64 `json:"retrieve_p50_ns"`
	RetrieveP99Ns int64 `json:"retrieve_p99_ns"`
	StoreP50Ns    int64 `json:"store_p50_ns,omitempty"`
	StoreP99Ns    int64 `json:"store_p99_ns,omitempty"`

	// FlashReadsPerGet is the headline metric: mean metadata flash
	// reads per retrieve lookup (RHIK bounds it at one).
	FlashReadsPerGet float64 `json:"flash_reads_per_get"`

	// Flash deltas over the measured run only.
	FlashReads    int64 `json:"flash_reads"`
	FlashPrograms int64 `json:"flash_programs"`

	Resizes      int     `json:"resizes"`
	Collisions   int64   `json:"collisions,omitempty"`
	NotFound     int64   `json:"not_found,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Cache-tier effectiveness over the measured run; omitted when the
	// tiered cache is off.
	ValueCacheHitRate float64 `json:"value_cache_hit_rate,omitempty"`
	AdmissionRejects  int64   `json:"admission_rejects,omitempty"`
	PrefetchHits      int64   `json:"prefetch_hits,omitempty"`

	ScanOps        int64 `json:"scan_ops,omitempty"`
	ScannedEntries int64 `json:"scanned_entries,omitempty"`

	WallMs int64 `json:"wall_ms"`

	// Detail holds engine-specific counters (LSM flushes/compactions/
	// runs, mlhash levels); Notes documents known asymmetries.
	Detail map[string]int64 `json:"detail,omitempty"`
	Notes  []string         `json:"notes,omitempty"`
}

// ShootoutResult is the full grid, serialized to results/SHOOTOUT.json.
type ShootoutResult struct {
	Spec   string         `json:"spec"`
	Config ShootoutConfig `json:"config"`
	Notes  []string       `json:"notes"`
	Cells  []Cell         `json:"cells"`
}

// shootoutSpec versions the JSON schema.
const shootoutSpec = "rhik-shootout/v1"

// nowMs is the wall clock used for Cell.WallMs; tests may stub it.
var nowMs = func() int64 { return time.Now().UnixMilli() }

// RunShootout runs every (engine × workload) cell and collects the
// grid. Progress lines go to w (may be nil). Cells run sequentially —
// each engine owns its own simulated timeline, so host parallelism
// would not change any reported number, only wall time.
func RunShootout(cfg ShootoutConfig, w io.Writer) (*ShootoutResult, error) {
	cfg.applyDefaults()
	res := &ShootoutResult{
		Spec:   shootoutSpec,
		Config: cfg,
		Notes: []string{
			"identical seeds: every engine in a workload column consumes a byte-identical op stream",
			"throughput and latency are simulated device time (deterministic); wall_ms is host time",
			"flash_reads_per_get is the mean metadata flash reads per retrieve lookup — the cost RHIK bounds at one",
		},
	}
	for _, wl := range cfg.Workloads {
		spec, err := workload.YCSBWorkload(wl)
		if err != nil {
			return nil, err
		}
		if cfg.Theta != 0 {
			spec.Theta = cfg.Theta
		}
		for _, en := range cfg.Engines {
			espec, err := EngineByName(en)
			if err != nil {
				return nil, err
			}
			if w != nil {
				fmt.Fprintf(w, "shootout: %-8s × %-7s ", en, spec.Name)
			}
			cell, err := runCell(espec, spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("cell %s×%s: %w", en, spec.Name, err)
			}
			if w != nil {
				fmt.Fprintf(w, "%8.1f kops/s  p99(get) %7s  flash-reads/GET %.3f\n",
					cell.ThroughputKops, fmtNs(cell.RetrieveP99Ns), cell.FlashReadsPerGet)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// runCell opens a fresh engine, preloads Records keys, then replays Ops
// generated ops and snapshots the measured window.
func runCell(espec EngineSpec, spec workload.YCSBSpec, cfg ShootoutConfig) (Cell, error) {
	eng, err := espec.Open(EngineConfig{
		Capacity:         cfg.Capacity,
		CacheBudget:      cfg.CacheBudget,
		PrefixLen:        cfg.ScanPrefixLen,
		ValueCacheBudget: cfg.ValueCacheBudget,
		CacheAdmission:   cfg.CacheAdmission,
	})
	if err != nil {
		return Cell{}, err
	}
	defer eng.Close()

	cell := Cell{
		Engine:   espec.Name,
		Workload: spec.Name,
		Records:  cfg.Records,
		Ops:      cfg.Ops,
		Notes:    espec.Notes,
	}
	wallStart := nowMs()

	// Preload: records 0..Records-1, sizes from the cell's own
	// deterministic stream (same for every engine).
	loadSizes := newSizes(cfg, cfg.Seed+1)
	for i := 0; i < cfg.Records; i++ {
		key := workload.KeyBytes(uint64(i))
		val := workload.ValuePayload(uint64(i), loadSizes.Next())
		if err := eng.Store(key, val); err != nil {
			if errors.Is(err, rhik.ErrCollision) {
				cell.Collisions++
				continue
			}
			return Cell{}, fmt.Errorf("preload key %d: %w", i, err)
		}
	}

	// Measured run: reset phase stats, then replay the generator.
	eng.ResetOpStats()
	before := eng.Stats()
	elapsed0 := eng.Elapsed()

	gen, err := workload.NewYCSB(spec, uint64(cfg.Records), newSizes(cfg, cfg.Seed+2), cfg.Seed+3)
	if err != nil {
		return Cell{}, err
	}
	gen.ScanPrefixLen = cfg.ScanPrefixLen

	var vbuf []byte // reused across retrieves (the allocation-free path)
	for i := 0; i < cfg.Ops; i++ {
		op := gen.Next()
		key := workload.KeyBytes(op.KeyID)
		switch op.Kind {
		case workload.OpRetrieve:
			v, err := eng.Retrieve(vbuf[:0], key)
			if err != nil {
				if errors.Is(err, rhik.ErrNotFound) {
					cell.NotFound++
					continue
				}
				return Cell{}, fmt.Errorf("op %d retrieve: %w", i, err)
			}
			vbuf = v
		case workload.OpStore:
			err := eng.Store(key, workload.ValuePayload(op.KeyID, op.ValueSize))
			if err != nil {
				if errors.Is(err, rhik.ErrCollision) {
					cell.Collisions++
					continue
				}
				return Cell{}, fmt.Errorf("op %d store: %w", i, err)
			}
		case workload.OpIterate:
			n := op.ScanPrefix
			if n <= 0 || n > len(key) {
				n = len(key)
			}
			entries, err := eng.Iterate(key[:n])
			if err != nil {
				return Cell{}, fmt.Errorf("op %d iterate: %w", i, err)
			}
			cell.ScanOps++
			cell.ScannedEntries += int64(len(entries))
		case workload.OpRMW:
			v, err := eng.Retrieve(vbuf[:0], key)
			if err != nil && !errors.Is(err, rhik.ErrNotFound) {
				return Cell{}, fmt.Errorf("op %d rmw-read: %w", i, err)
			} else if err != nil {
				cell.NotFound++
			} else {
				vbuf = v
			}
			if err := eng.Store(key, workload.ValuePayload(op.KeyID, op.ValueSize)); err != nil {
				if errors.Is(err, rhik.ErrCollision) {
					cell.Collisions++
					continue
				}
				return Cell{}, fmt.Errorf("op %d rmw-write: %w", i, err)
			}
		case workload.OpDelete:
			if err := eng.Delete(key); err != nil && !errors.Is(err, rhik.ErrNotFound) {
				return Cell{}, fmt.Errorf("op %d delete: %w", i, err)
			}
		case workload.OpExist:
			if _, err := eng.Exist(key); err != nil {
				return Cell{}, fmt.Errorf("op %d exist: %w", i, err)
			}
		}
	}

	after := eng.Stats()
	elapsed := eng.Elapsed() - elapsed0
	cell.SimElapsedNs = int64(elapsed)
	if elapsed > 0 {
		cell.ThroughputKops = float64(cfg.Ops) / (float64(elapsed) / 1e9) / 1e3
	}
	cell.RetrieveP50Ns = after.RetrieveP50
	cell.RetrieveP99Ns = after.RetrieveP99
	cell.StoreP50Ns = after.StoreP50
	cell.StoreP99Ns = after.StoreP99
	cell.FlashReadsPerGet = after.FlashReadsPerGet
	cell.FlashReads = after.FlashReads - before.FlashReads
	cell.FlashPrograms = after.FlashPrograms - before.FlashPrograms
	cell.Resizes = after.Resizes
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		cell.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	vhits := after.ValueCacheHits - before.ValueCacheHits
	vmisses := after.ValueCacheMisses - before.ValueCacheMisses
	if vhits+vmisses > 0 {
		cell.ValueCacheHitRate = float64(vhits) / float64(vhits+vmisses)
	}
	cell.AdmissionRejects = after.AdmissionRejects - before.AdmissionRejects
	cell.PrefetchHits = after.PrefetchHits - before.PrefetchHits
	cell.Detail = after.Detail
	cell.WallMs = nowMs() - wallStart
	return cell, nil
}

// newSizes builds the cell's value-size distribution.
func newSizes(cfg ShootoutConfig, seed int64) workload.SizeDist {
	if cfg.ValueMin == cfg.ValueMax {
		return workload.Fixed{Size: cfg.ValueMin}
	}
	return workload.NewZipfSizes(cfg.ValueMin, cfg.ValueMax, cfg.ValueTheta, seed)
}
