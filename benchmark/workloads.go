package main

import (
	"fmt"

	rhik "repro"
	"repro/internal/device"
	"repro/internal/nand"
	"repro/internal/shard"
	"repro/internal/workload"
)

// spec is one named workload. Names are fixed: later issues cite them.
// Program options not listed in a spec stay at their defaults, so
// ValueCacheBudget, CacheAdmission, ScanPrefetch and IncrementalResize
// are off and a later change that makes one a default shows up as a gain.
type spec struct {
	name string
	// why is the layer that does most of the work on this workload; it is
	// copied into BENCHMARK.json.
	why string

	// wire workloads drive cmd/kvserver over loopback through
	// internal/client; the others call shard.Set in process.
	wire bool
	wal  bool

	records        uint64 // keys stored before the window opens
	valMin, valMax int    // value bytes; zipf-sized between them when they differ
	mix            workload.YCSBMix
	dist           string
	prefixLen      int // iterator-mode prefix bytes (scans)

	clients int // closed-loop callers (goroutines)
	conns   int // pipelined connections they share (wire)

	// churn runs updates until every erase block has been erased twice
	// before the window, so flash buffers are recycled and no fresh
	// memory is faulted in while timing.
	churn bool

	traceOps int // ops replayed at each boundary of the traced run

	// opts are the rhik.Options of the in-process set, and of the twin a
	// wire workload's traced run opens: what serverArgs resolve to.
	opts rhik.Options
	// geometry overrides the NAND geometry opts.Capacity would derive.
	geometry *nand.Config
}

const (
	valueBytes = 128
	zipfTheta  = 0.99
)

var (
	ycsbA = workload.YCSBMix{Read: 0.5, Update: 0.5}
	ycsbB = workload.YCSBMix{Read: 0.95, Update: 0.05}
	ycsbE = workload.YCSBMix{Scan: 0.95, Insert: 0.05}
)

// specs returns the six workloads at 1/div of their size (div 1 is the
// benchmark; the smoke test runs div 50).
func specs(div int) []spec {
	n := func(full int) int { return max(full/div, 64) }
	churnGeo := nand.DefaultConfig(0)
	churnGeo.BlocksPerDie = max(32/div, 6)
	churnGeo.PagesPerBlock = 16

	return []spec{
		{
			name: "wire-hot",
			why:  "YCSB-B over loopback, index fits the cache: kvwire codec, server dispatch and the lock-free read tier; the engine is a few percent of the CPU per op",
			wire: true, records: uint64(n(200_000)), valMin: valueBytes, valMax: valueBytes,
			mix: ycsbB, dist: "zipfian", clients: 16, conns: 2, traceOps: n(10_000),
			opts: rhik.Options{Shards: 2, Capacity: 1 << 30},
		},
		{
			name: "wire-wal",
			why:  "YCSB-A over loopback with a WAL (fsync=none: the checkout's disk must not be what is measured), then kill -9 and restart: server writer queue, shard committer, wal.Append, replay",
			wire: true, wal: true, records: uint64(n(200_000)), valMin: valueBytes, valMax: valueBytes,
			mix: ycsbA, dist: "zipfian", clients: 16, conns: 2, traceOps: n(10_000),
			opts: rhik.Options{Shards: 2, Capacity: 1 << 30, WAL: rhik.WALOptions{Fsync: "none"}},
		},
		{
			name:    "lib-churn",
			why:     "in-process 50/50 zipf-sized updates on a small device in GC steady state: device write path, layout packing, ftl allocation, nand program/erase, victim selection",
			records: uint64(n(8_000)), valMin: 256, valMax: 4096,
			mix: ycsbA, dist: "zipfian", clients: 2, churn: true, traceOps: n(20_000),
			opts: rhik.Options{Shards: 2}, geometry: &churnGeo,
		},
		{
			name:    "lib-cold",
			why:     "in-process YCSB-B with half the index resident, the paper's regime: dram CLOCK cache, core page-in and write-back, hopscotch encode/decode, exclusive-fallback reads",
			records: uint64(n(200_000)), valMin: valueBytes, valMax: valueBytes,
			mix: ycsbB, dist: "zipfian", clients: 2, traceOps: n(20_000),
			opts: rhik.Options{Shards: 2, CacheBudget: int64(n(4 << 20))},
		},
		{
			name:    "lib-scan",
			why:     "in-process YCSB-E, 256-key prefix scans with values beside inserts: device.Iterate and index.PrefixScanner under all-shard write locks",
			records: uint64(n(200_000)), valMin: valueBytes, valMax: valueBytes,
			mix: ycsbE, dist: "zipfian", prefixLen: workload.DefaultScanPrefixLen,
			clients: 2, traceOps: n(2_000),
			opts: rhik.Options{Shards: 2, IteratorPrefixLen: workload.DefaultScanPrefixLen},
		},
		{
			name:    "lib-grow",
			why:     "in-process 80/20 insert/read-latest from an empty store with the whole index cached: RHIK's stop-the-world doublings and signature-only migration",
			records: 1, valMin: valueBytes, valMax: valueBytes,
			mix: workload.YCSBMix{Read: 0.2, Insert: 0.8}, dist: "latest",
			clients: 2, traceOps: n(20_000),
			opts: rhik.Options{Shards: 2, Capacity: 2 << 30, CacheBudget: 128 << 20},
		},
	}
}

func findSpec(name string, div int) (spec, error) {
	for _, s := range specs(div) {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) ycsb() workload.YCSBSpec {
	return workload.YCSBSpec{Name: s.name, Mix: s.mix, KeyDist: s.dist, Theta: zipfTheta}
}

// open builds the in-process set (walDir is empty unless the spec has a
// WAL and the caller wants it attached).
func (s spec) open(walDir string) (*shard.Set, error) {
	if s.geometry == nil {
		o := s.opts
		o.WAL.Dir = walDir
		return rhik.OpenSet(o)
	}
	geo := *s.geometry
	return shard.New(s.opts.Shards, device.Config{NAND: &geo})
}

// serverArgs are the kvserver flags of a wire workload.
func (s spec) serverArgs(walDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-shards", fmt.Sprint(s.opts.Shards),
		"-capacity", fmt.Sprint(s.opts.Capacity),
	}
	if s.wal {
		args = append(args, "-wal-dir", walDir, "-wal-fsync", s.opts.WAL.Fsync)
	}
	return args
}
