// Command shootout runs the cross-engine YCSB shootout: every (engine ×
// workload) cell under identical seeds, on identical emulated hardware,
// and writes the grid to a JSON report (default results/SHOOTOUT.json).
//
//	go run ./cmd/shootout -records 50000 -ops 100000
//	go run ./cmd/shootout -engines rhik,lsm -workloads ycsb-a,ycsb-c -quick
//
// Throughput and latency are simulated device time, so the numbers are
// deterministic for a given configuration — rerunning the shootout on a
// different host must reproduce every figure except wall_ms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		engines   = flag.String("engines", "", "comma-separated engine names (default: all registered)")
		workloads = flag.String("workloads", "", "comma-separated YCSB workloads, e.g. ycsb-a,ycsb-e (default: a-f)")
		records   = flag.Int("records", 0, "preloaded record count (default 50000)")
		ops       = flag.Int("ops", 0, "measured op count (default 100000)")
		seed      = flag.Int64("seed", 0, "generator seed, shared by every cell (default 42)")
		theta     = flag.Float64("theta", 0, "override key-popularity zipfian theta (default: per-spec, 0.99)")
		vmin      = flag.Int("vmin", 0, "min value size in bytes (default 64)")
		vmax      = flag.Int("vmax", 0, "max value size in bytes (default 4096; equal to vmin = fixed)")
		capacity  = flag.Int64("capacity", 0, "device capacity in bytes (default 256 MiB)")
		cache     = flag.Int64("cache", 0, "index DRAM budget in bytes (default 512 KiB)")
		valCache  = flag.Int64("value-cache", 0, "hot-value DRAM budget in bytes (default 0: tier off)")
		quick     = flag.Bool("quick", false, "tiny smoke-test grid (2k records, 4k ops, 2 engines x 2 workloads unless overridden)")
		out       = flag.String("o", filepath.Join("results", "SHOOTOUT.json"), "output JSON path")
	)
	flag.Parse()

	cfg := bench.ShootoutConfig{
		Records:          *records,
		Ops:              *ops,
		Seed:             *seed,
		Theta:            *theta,
		ValueMin:         *vmin,
		ValueMax:         *vmax,
		Capacity:         *capacity,
		CacheBudget:      *cache,
		ValueCacheBudget: *valCache,
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	if *quick {
		if cfg.Records == 0 {
			cfg.Records = 2000
		}
		if cfg.Ops == 0 {
			cfg.Ops = 4000
		}
		if cfg.CacheBudget == 0 {
			cfg.CacheBudget = 128 << 10
		}
		if len(cfg.Engines) == 0 {
			cfg.Engines = []string{"rhik", "lsm"}
		}
		if len(cfg.Workloads) == 0 {
			cfg.Workloads = []string{"ycsb-a", "ycsb-e"}
		}
	}

	res, err := bench.RunShootout(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shootout:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "shootout: marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "shootout:", err)
			os.Exit(1)
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "shootout:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "shootout: wrote %s (%d cells)\n", *out, len(res.Cells))
}
