package main

// metricDef declares one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions; the test keeps the two and
// the README in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: share of the baseline's median it may worsen by
	src    string  // per layer only: S counter delta, T traced replay, P /proc probe
	// moves names, per layer, the end-to-end metrics it should move and the
	// workloads where; -compare lists the layer metric beside those.
	moves []string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{name: "throughput_kops", unit: "kops/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "flash_reads_per_op", unit: "count", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the metrics of single layers (the repository's packages),
// reported by every workload with --trace 1; one that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	// Load generator: validity of the wire numbers.
	{name: "loadgen.null_kops", unit: "kops/s", better: "higher", src: "T", moves: []string{"throughput_kops@wire-hot"}},
	{name: "loadgen.cpu_us_per_op", unit: "us", better: "lower", src: "P", moves: []string{"throughput_kops@wire-hot"}},

	{name: "client.get_us", unit: "us", better: "lower", src: "T", moves: []string{"read_p50_us@wire-hot"}},
	{name: "client.put_us", unit: "us", better: "lower", src: "T", moves: []string{"write_p90_us@wire-wal"}},
	{name: "kvwire.codec_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@wire-hot"}},
	{name: "server.cpu_us_per_op", unit: "us", better: "lower", src: "P", moves: []string{"throughput_kops@wire-hot", "read_p90_us@wire-hot", "write_p90_us@wire-wal"}},
	{name: "server.overhead_us_per_op", unit: "us", better: "lower", src: "P", moves: []string{"throughput_kops@wire-hot", "read_p90_us@wire-hot", "write_p90_us@wire-wal"}},

	{name: "shard.get_ns", unit: "ns", better: "lower", src: "T", moves: []string{"read_p50_us@wire-hot", "read_p50_us@lib-cold"}},
	{name: "shard.put_ns", unit: "ns", better: "lower", src: "T", moves: []string{"write_p90_us@lib-churn", "write_p90_us@wire-wal"}},
	{name: "shard.scan_us", unit: "us", better: "lower", src: "T", moves: []string{"read_p50_us@lib-scan"}},
	{name: "shard.cpu_us_per_op", unit: "us", better: "lower", src: "P", moves: []string{"throughput_kops@lib-churn", "throughput_kops@lib-cold", "throughput_kops@wire-wal"}},
	{name: "shard.optimistic_pct", unit: "%", better: "higher", src: "S", moves: []string{"read_p50_us@wire-hot"}},
	{name: "shard.retries_per_kop", unit: "1/kop", better: "lower", src: "S", moves: []string{"read_p90_us@lib-churn"}},
	{name: "shard.fallback_per_kop", unit: "1/kop", better: "lower", src: "S", moves: []string{"throughput_kops@lib-cold"}},
	{name: "shard.scaling_2w", unit: "ratio", better: "higher", src: "T", moves: []string{"throughput_kops@lib-churn", "write_p90_us@lib-churn", "throughput_kops@lib-cold", "throughput_kops@lib-scan", "throughput_kops@lib-grow"}},

	{name: "wal.append_us_per_rec", unit: "us", better: "lower", src: "T", moves: []string{"write_p90_us@wire-wal", "throughput_kops@wire-wal"}},
	{name: "wal.group_mean", unit: "count", better: "higher", src: "S", moves: []string{"write_p90_us@wire-wal", "throughput_kops@wire-wal"}},
	{name: "wal.fsyncs_per_kput", unit: "1/kop", better: "lower", src: "S", moves: []string{"write_p90_us@wire-wal", "throughput_kops@wire-wal"}},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower", src: "S", moves: []string{"throughput_kops@wire-wal"}},
	// Restart after kill -9: no end-to-end metric covers it, since every
	// end-to-end metric must exist on every workload.
	{name: "wal.recovery_krec_per_s", unit: "krec/s", better: "higher", src: "P"},
	{name: "wal.replay_s", unit: "s", better: "lower", src: "P"},
	{name: "wal.replayed_records", unit: "count", better: "lower", src: "S"},
	{name: "host.fsync_us", unit: "us", better: "lower", src: "P", moves: []string{"write_p90_us@wire-wal", "throughput_kops@wire-wal"}},

	{name: "device.get_ns", unit: "ns", better: "lower", src: "T", moves: []string{"read_p50_us@lib-cold", "read_p50_us@lib-churn"}},
	{name: "device.put_ns", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn", "write_p90_us@lib-churn", "throughput_kops@lib-grow"}},
	{name: "device.scan_us", unit: "us", better: "lower", src: "T", moves: []string{"throughput_kops@lib-scan", "read_p50_us@lib-scan"}},
	{name: "device.waf", unit: "ratio", better: "lower", src: "S", moves: []string{"throughput_kops@lib-churn", "throughput_kops@lib-cold"}},
	{name: "device.sim_kops", unit: "kops/s", better: "higher", src: "S", moves: []string{"throughput_kops@lib-cold"}},
	{name: "device.sim_get_p50_us", unit: "us", better: "lower", src: "S", moves: []string{"flash_reads_per_op@lib-cold"}},
	{name: "device.sim_get_p99_us", unit: "us", better: "lower", src: "S", moves: []string{"flash_reads_per_op@lib-cold"}},
	{name: "device.sim_put_p99_us", unit: "us", better: "lower", src: "S", moves: []string{"throughput_kops@lib-churn"}},
	{name: "device.gc_runs_per_mop", unit: "1/Mop", better: "lower", src: "S", moves: []string{"throughput_kops@lib-churn", "write_p90_us@lib-churn"}},
	{name: "device.gc_moved_per_user_byte", unit: "ratio", better: "lower", src: "S", moves: []string{"throughput_kops@lib-churn"}},
	{name: "device.vcache_hit_pct", unit: "%", better: "higher", src: "S", moves: []string{"flash_reads_per_op@lib-cold", "flash_reads_per_op@wire-hot"}},
	{name: "device.prefetch_hits_per_scan", unit: "count", better: "higher", src: "S", moves: []string{"flash_reads_per_op@lib-scan"}},

	{name: "core.lookup_ns", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-cold", "read_p50_us@lib-cold"}},
	{name: "core.upsert_ns", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-grow", "write_p90_us@lib-cold"}},
	{name: "core.scan_us", unit: "us", better: "lower", src: "T", moves: []string{"read_p50_us@lib-scan"}},
	{name: "core.frpg", unit: "count", better: "lower", src: "S", moves: []string{"flash_reads_per_op@lib-cold", "throughput_kops@lib-cold"}},
	{name: "core.resizes", unit: "count", better: "lower", src: "S", moves: []string{"throughput_kops@lib-grow"}},
	{name: "core.resize_halt_sim_ms", unit: "ms", better: "lower", src: "S", moves: []string{"write_p90_us@lib-grow", "throughput_kops@lib-grow"}},
	{name: "core.dram_bytes", unit: "B", better: "lower", src: "S", moves: []string{"peak_rss_mb@lib-grow"}},

	{name: "dram.hit_pct", unit: "%", better: "higher", src: "S", moves: []string{"flash_reads_per_op@lib-cold", "throughput_kops@lib-cold"}},
	{name: "dram.evictions_per_kop", unit: "1/kop", better: "lower", src: "S", moves: []string{"throughput_kops@lib-cold", "read_p90_us@lib-cold"}},
	{name: "dram.admission_rejects", unit: "count", better: "lower", src: "S", moves: []string{"flash_reads_per_op@lib-cold"}},

	{name: "hopscotch.get_ns", unit: "ns", better: "lower", src: "T", moves: []string{"read_p50_us@lib-churn"}},
	{name: "hopscotch.put_ns", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-grow"}},
	{name: "hopscotch.encode_us", unit: "us", better: "lower", src: "T", moves: []string{"throughput_kops@lib-cold"}},
	{name: "hopscotch.decode_us", unit: "us", better: "lower", src: "T", moves: []string{"throughput_kops@lib-cold", "read_p90_us@lib-cold"}},

	{name: "layout.pack_ns_per_pair", unit: "ns", better: "lower", src: "T", moves: []string{"write_p90_us@lib-churn"}},
	{name: "layout.decode_ns_per_pair", unit: "ns", better: "lower", src: "T", moves: []string{"read_p50_us@lib-scan"}},

	{name: "nand.reads_per_op", unit: "count", better: "lower", src: "S", moves: []string{"flash_reads_per_op@lib-scan", "flash_reads_per_op@lib-cold"}},
	{name: "nand.programs_per_kop", unit: "1/kop", better: "lower", src: "S", moves: []string{"throughput_kops@lib-cold", "throughput_kops@lib-churn"}},
	{name: "nand.erases_per_mop", unit: "1/Mop", better: "lower", src: "S", moves: []string{"throughput_kops@lib-churn"}},
	{name: "nand.page_copy_us", unit: "us", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn", "throughput_kops@lib-scan"}},

	{name: "hash.sig_ns", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn", "throughput_kops@wire-hot"}},
	{name: "epoch.pins_per_kop", unit: "1/kop", better: "lower", src: "S", moves: []string{"read_p50_us@lib-churn"}},

	// Self time per replayed request: the layer's spans minus its
	// children's. They add up to trace.root_ns_per_op.
	{name: "self.client_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"read_p50_us@wire-hot"}},
	{name: "self.kvwire_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@wire-hot"}},
	{name: "self.shard_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn"}},
	{name: "self.hash_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn"}},
	{name: "self.wal_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"write_p90_us@wire-wal"}},
	{name: "self.device_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn", "throughput_kops@lib-scan"}},
	{name: "self.layout_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn"}},
	{name: "self.nand_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-churn"}},
	{name: "self.core_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-cold"}},
	{name: "self.hopscotch_ns_per_op", unit: "ns", better: "lower", src: "T", moves: []string{"throughput_kops@lib-grow"}},
	{name: "trace.root_ns_per_op", unit: "ns", better: "lower", src: "T"},

	// Host and harness: diagnostics for reading the rest.
	{name: "trace.window_kops", unit: "kops/s", better: "higher", src: "T"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", src: "T"},
	{name: "op.max_ms", unit: "ms", better: "lower", src: "T", moves: []string{"write_p90_us@lib-grow"}},
	{name: "write_p50_us", unit: "us", better: "lower", src: "T", moves: []string{"throughput_kops@wire-wal", "throughput_kops@lib-churn"}},
	{name: "read_p99_us", unit: "us", better: "lower", src: "T"},
	{name: "write_p99_us", unit: "us", better: "lower", src: "T"},
	{name: "read_p999_us", unit: "us", better: "lower", src: "T"},
	{name: "write_p999_us", unit: "us", better: "lower", src: "T"},
	{name: "host.steal_pct", unit: "%", better: "lower", src: "P"},
	{name: "host.nproc", unit: "count", better: "higher", src: "P"},
	{name: "proc.gomaxprocs", unit: "count", better: "higher", src: "P"},
}

// unitOf returns the declared unit of an end-to-end or per-layer metric.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
