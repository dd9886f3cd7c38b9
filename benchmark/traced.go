package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// The traced run splits its --seconds: half for a timed window like the
// end-to-end run's (the counter deltas and /proc probes come from it), the
// rest for one client alone, the null responder and the peel replay.
const (
	tracedWindowShare = 0.5
	soloShare         = 0.15
	nullShare         = 0.1
	passShare         = 0.06 // time box of one replay pass
	minTraceOps       = 64
)

func runTraced(sp *spec, cfg *runConfig, bin string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]float64{}}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.name] = 0 // a metric that does not apply to this workload reads 0
	}
	share := func(f float64) time.Duration { return time.Duration(cfg.seconds * f * float64(time.Second)) }

	in, err := setup(sp, cfg, bin, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.discard()

	// Timed window: S (counter deltas) and P (/proc probes).
	steal0, self0 := readCPUTimes(), selfCPUSeconds()
	var srv0 float64
	if in.srv != nil && in.srv.pid() != 0 {
		srv0 = cpuSeconds(in.srv.pid())
	}
	win, delta, err := in.timedWindow(cfg.seed, share(tracedWindowShare), res)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	ops := float64(win.reads + win.writes + win.scans)
	m["host.steal_pct"] = stealPct(steal0, readCPUTimes())
	m["loadgen.cpu_us_per_op"] = ratio((selfCPUSeconds()-self0)*1e6, ops)
	if in.srv != nil && in.srv.pid() != 0 {
		m["server.cpu_us_per_op"] = ratio((cpuSeconds(in.srv.pid())-srv0)*1e6, ops)
	}
	in.counterMetrics(m, win, delta)

	// One client alone: what the second client (or the other fifteen) adds.
	solo := in.soloWindow(share(soloShare))
	if solo.failed > 0 {
		res.fail("%d requests failed with one client alone, first: %v", solo.failed, solo.firstErr)
	}
	if !sp.wire {
		m["shard.scaling_2w"] = ratio(win.throughputKops(), solo.throughputKops())
	}

	if sp.wire {
		null, err := in.nullWindow(cfg.seed, share(nullShare))
		if err != nil {
			return nil, err
		}
		m["loadgen.null_kops"] = null
		if null < 2*win.throughputKops() {
			res.note("FLAG: the load generator saturates at %.1f kops/s against a do-nothing responder, under twice the %.1f kops/s measured: the generator may be the bottleneck", null, win.throughputKops())
		}
	}

	// Peel replay: T.
	set := in.set
	if sp.wire {
		twinDir := ""
		if sp.wal {
			twinDir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-twin-%d", os.Getpid()))
			os.RemoveAll(twinDir)
			defer os.RemoveAll(twinDir)
		}
		// The twin: a store opened with the options the server's flags
		// resolve to, and preloaded with the same keys.
		if set, err = setupLib(sp, in.keys, twinDir); err != nil {
			return nil, fmt.Errorf("twin of the server's store: %w", err)
		}
		defer set.Close()
	}
	r := newReplay(sp, in.workers[0].st, in.keys, set)
	if err := in.peel(r, m, share(passShare)); err != nil {
		return nil, err
	}
	if sp.wire {
		// The wire form of STATS has no flash-reads-per-GET; the twin served
		// the same requests.
		st := set.Stats()
		m["core.frpg"] = st.MetaPerGet.Mean()
		m["core.dram_bytes"] = float64(st.Index.DRAMBytes)
	}
	spanFile := filepath.Join(cfg.outDir, sp.name+".spans.jsonl")
	if err := r.tr.write(spanFile); err != nil {
		return nil, err
	}
	res.note("%d spans in %s", len(r.tr.spans), spanFile)

	if sp.wal {
		rec, err := in.killAndRecover(res)
		if err != nil {
			return nil, err
		}
		m["wal.recovery_krec_per_s"] = median(rec.krecPerS)
		m["wal.replay_s"] = median(rec.replayS)
		m["wal.replayed_records"] = float64(rec.records)
	}
	if in.set != nil {
		if err := in.set.Close(); err != nil {
			res.fail("closing the set: %v", err)
		}
	}
	m["host.nproc"] = float64(runtime.NumCPU())
	m["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	checkPredictions(sp, m, res)
	return res, nil
}

// counterMetrics derives the S metrics from a window and the counter
// deltas around it.
func (in *instance) counterMetrics(m map[string]float64, win *window, d counters) {
	ops := float64(win.reads + win.writes + win.scans)
	writes, scans := float64(win.writes), float64(win.scans)
	m["trace.window_kops"] = win.throughputKops()
	m["op.max_ms"] = float64(win.maxNs) / 1e6
	m["write_p50_us"] = win.latencyUs(kindWrite, 50)
	m["read_p99_us"] = win.latencyUs(kindRead, 99)
	m["write_p99_us"] = win.latencyUs(kindWrite, 99)
	m["read_p999_us"] = win.lat[kindRead].percentile(99.9) / 1e3
	m["write_p999_us"] = win.lat[kindWrite].percentile(99.9) / 1e3

	m["shard.optimistic_pct"] = 100 * ratio(d.f(cOptimisticReads), float64(d[cOptimisticReads]+d[cFallbackExclusive]))
	m["shard.retries_per_kop"] = 1e3 * ratio(d.f(cOptimisticRetries), ops)
	m["shard.fallback_per_kop"] = 1e3 * ratio(d.f(cFallbackExclusive), ops)
	m["epoch.pins_per_kop"] = 1e3 * ratio(d.f(cEpochPins), ops)

	m["wal.group_mean"] = ratio(d.f(cWALRecords), d.f(cWALGroups))
	m["wal.fsyncs_per_kput"] = 1e3 * ratio(d.f(cWALFsyncs), writes)
	m["wal.bytes_per_user_byte"] = ratio(d.f(cWALBytes), d.f(cBytesWritten))

	m["device.gc_runs_per_mop"] = 1e6 * ratio(d.f(cGCRuns), ops)
	m["device.gc_moved_per_user_byte"] = ratio(d.f(cGCBytesMoved), d.f(cBytesWritten))
	m["device.vcache_hit_pct"] = 100 * ratio(d.f(cVCacheHits), float64(d[cVCacheHits]+d[cVCacheMisses]))
	m["device.prefetch_hits_per_scan"] = ratio(d.f(cPrefetchHits), scans)
	m["device.waf"] = ratio(d.f(cFlashWriteBytes), d.f(cBytesWritten))
	m["device.sim_kops"] = ratio(ops, d.f(cSimElapsedNs)/1e9) / 1e3

	m["core.resizes"] = d.f(cResizes)
	m["core.resize_halt_sim_ms"] = d.f(cResizeHaltNs) / 1e6
	m["core.dram_bytes"] = d.f(cDRAMBytes)
	m["dram.hit_pct"] = 100 * ratio(d.f(cCacheHits), float64(d[cCacheHits]+d[cCacheMisses]))
	m["dram.evictions_per_kop"] = 1e3 * ratio(d.f(cCacheEvictions), ops)
	m["dram.admission_rejects"] = d.f(cAdmissionRejects)

	m["nand.reads_per_op"] = ratio(d.f(cFlashReads), ops)
	m["nand.programs_per_kop"] = 1e3 * ratio(d.f(cFlashPrograms), ops)
	m["nand.erases_per_mop"] = 1e6 * ratio(d.f(cFlashErases), ops)

	if in.set != nil {
		st := in.set.Stats() // histograms cover the window: ResetOpStats ran before it
		m["device.sim_get_p50_us"] = float64(st.RetrieveLat.Percentile(50)) / 1e3
		m["device.sim_get_p99_us"] = float64(st.RetrieveLat.Percentile(99)) / 1e3
		m["device.sim_put_p99_us"] = float64(st.StoreLat.Percentile(99)) / 1e3
		m["core.frpg"] = st.MetaPerGet.Mean()
	} else if st, err := in.wt.c.Stats(); err == nil {
		// Over the wire the percentiles are since the server started.
		m["device.sim_get_p50_us"] = float64(st.RetrieveP50ns) / 1e3
		m["device.sim_get_p99_us"] = float64(st.RetrieveP99ns) / 1e3
		m["device.sim_put_p99_us"] = float64(st.StoreP99ns) / 1e3
	}
}

// soloWindow runs client 0 alone for dur, continuing its stream.
func (in *instance) soloWindow(dur time.Duration) *window {
	wk := in.workers[0]
	wk.sl = make([]sliceStats, slices)
	wk.attempted, wk.failed, wk.firstErr, wk.maxNs = 0, 0, nil, 0
	return runWindow([]*worker{wk}, dur)
}

// nullWindow drives the do-nothing responder with the workload's clients
// and connections and returns the rate in kops/s.
func (in *instance) nullWindow(seed int64, dur time.Duration) (float64, error) {
	ns, err := startNullServer(in.sp.valMin)
	if err != nil {
		return 0, err
	}
	defer ns.stop()
	wt, err := dialWire(ns.addr(), in.sp.conns)
	if err != nil {
		return 0, err
	}
	defer wt.c.Close()
	workers := make([]*worker, in.sp.clients)
	for w := range workers {
		if workers[w], err = newWorker(in.sp, w, seed, wt, in.keys, nil); err != nil {
			return 0, err
		}
	}
	win := runWindow(workers, dur)
	if win.failed > 0 {
		return 0, fmt.Errorf("null responder: %d requests failed, first: %v", win.failed, win.firstErr)
	}
	return win.throughputKops(), nil
}

// peel replays the next requests of client 0 at each boundary, outermost
// first, and derives the T metrics. box is the time the first pass may
// take; it fixes how many requests every pass replays.
func (in *instance) peel(r *replay, m map[string]float64, box time.Duration) error {
	// A pass is tens of milliseconds long; a collection of this process's
	// heap (the emulated flash lives in it) inside one pass and not the
	// next would swamp the difference between them.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	sp := in.sp
	outer, outerLayer := target(libTarget{r.set}), layerShard
	if sp.wire {
		outer, outerLayer = in.tgt, layerClient
	}

	// An untraced pass first: every traced pass then finds the store as
	// the same requests, replayed once before, left it. A second untraced
	// pass after the traced one brackets it, so that the tracing overhead
	// is taken against the mean of a colder and a warmer pass.
	timed := func(pass func() error) (float64, error) {
		t0 := time.Now()
		err := pass()
		return time.Since(t0).Seconds(), err
	}
	before, err := timed(func() error { return r.untracedPass(outer, box) })
	if err != nil {
		return err
	}
	cpu0 := selfCPUSeconds()
	traced, err := timed(func() error { return r.viaTarget(outerLayer, outer) })
	if err != nil {
		return err
	}
	if !sp.wire {
		m["shard.cpu_us_per_op"] = ratio((selfCPUSeconds()-cpu0)*1e6, float64(len(r.ops)))
	}
	after, err := timed(func() error { return r.untracedPass(outer, 0) })
	if err != nil {
		return err
	}
	m["trace.overhead_pct"] = 100 * (ratio(traced, (before+after)/2) - 1)

	if sp.wire {
		if err := r.leafKVWire(); err != nil {
			return err
		}
		// The twin has not seen the untraced pass the server saw.
		if err := r.untracedPass(libTarget{r.set}, 0); err != nil {
			return err
		}
		cpu0 := selfCPUSeconds()
		if err := r.viaTarget(layerShard, libTarget{r.set}); err != nil {
			return err
		}
		// What the server spends per op beyond the engine: connection
		// loops, queues, scheduler, syscalls. CPU time of the server
		// process in the window, minus this process's over the shard
		// boundary's pass (committer and fsync included) for the same mix.
		m["shard.cpu_us_per_op"] = ratio((selfCPUSeconds()-cpu0)*1e6, float64(len(r.ops)))
		if m["server.cpu_us_per_op"] > 0 { // 0 when the smoke test serves in process
			m["server.overhead_us_per_op"] = m["server.cpu_us_per_op"] - m["shard.cpu_us_per_op"]
		}
	}
	if err := r.leafHash(); err != nil {
		return err
	}
	if sp.wal {
		group := max(1, int(m["wal.group_mean"]+0.5))
		dir := filepath.Join(in.cfg.outDir, fmt.Sprintf("wal-scratch-%d", os.Getpid()))
		if err := r.leafWAL(dir, group); err != nil {
			return err
		}
		if m["host.fsync_us"], err = hostFsyncUs(in.cfg.outDir); err != nil {
			return err
		}
	}
	if err := r.viaDevice(); err != nil {
		return err
	}
	if err := r.leafLayoutNAND(); err != nil {
		return err
	}
	if err := r.viaCore(); err != nil {
		return err
	}
	encodeUs, decodeUs, err := r.viaHopscotch()
	if err != nil {
		return err
	}

	lt := r.tr.totals()
	m["kvwire.codec_ns_per_op"] = lt.mean(layerKVWire, kindCodec)
	m["client.get_us"] = lt.mean(layerClient, kindGet) / 1e3
	m["client.put_us"] = lt.mean(layerClient, kindPut) / 1e3
	m["shard.get_ns"] = lt.mean(layerShard, kindGet)
	m["shard.put_ns"] = lt.mean(layerShard, kindPut)
	m["shard.scan_us"] = lt.mean(layerShard, kindScan) / 1e3
	m["hash.sig_ns"] = lt.mean(layerHash, kindSig)
	if k := lt.kinds[layerWAL][kindAppend]; k.n > 0 {
		group := max(1, int(m["wal.group_mean"]+0.5))
		m["wal.append_us_per_rec"] = k.ns / float64(k.n*group) / 1e3
	}
	m["device.get_ns"] = lt.mean(layerDevice, kindGet)
	m["device.put_ns"] = lt.mean(layerDevice, kindPut)
	m["device.scan_us"] = lt.mean(layerDevice, kindScan) / 1e3
	m["layout.pack_ns_per_pair"] = lt.mean(layerLayout, kindPack)
	m["layout.decode_ns_per_pair"] = lt.mean(layerLayout, kindDecode)
	m["nand.page_copy_us"] = lt.mean(layerNAND, kindPageCopy) / 1e3
	m["core.lookup_ns"] = lt.mean(layerCore, kindGet)
	m["core.upsert_ns"] = lt.mean(layerCore, kindPut)
	m["core.scan_us"] = lt.mean(layerCore, kindScan) / 1e3
	m["hopscotch.get_ns"] = lt.mean(layerHopscotch, kindGet)
	m["hopscotch.put_ns"] = lt.mean(layerHopscotch, kindPut)
	m["hopscotch.encode_us"] = encodeUs
	m["hopscotch.decode_us"] = decodeUs
	for l := layerID(0); l < numLayers; l++ {
		m["self."+layerNames[l]+"_ns_per_op"] = lt.selfNsPerOp(l)
	}
	m["trace.root_ns_per_op"] = ratio(lt.rootNs, float64(lt.rootOps))

	return nil
}

// untracedPass replays the ops through tgt with no spans and no checks
// beyond errors. With a positive box it stops after that long and cuts
// r.ops to what it got through, so that no later pass takes longer than
// about the box either, however slow the host's fsync or network.
func (r *replay) untracedPass(tgt target, box time.Duration) error {
	t0 := time.Now()
	for i, o := range r.ops {
		if box > 0 && i >= minTraceOps && i%16 == 0 && time.Since(t0) > box {
			r.ops = r.ops[:i]
			break
		}
		key := r.keys.key(o.id, r.kbuf)
		var err error
		switch kindOf(o) {
		case kindGet:
			r.rbuf, err = tgt.get(r.rbuf[:0], key)
		case kindPut:
			r.version++
			err = tgt.put(key, fillValue(r.vbuf, o.size, o.id, r.version))
		default:
			err = tgt.scan(key[:r.sp.prefixLen], func(_, _ []byte) {})
		}
		if err != nil {
			return fmt.Errorf("untraced pass, request %d: %w", i, err)
		}
	}
	return nil
}

// checkPredictions prints whether the layer predictions the README makes
// hold on this run. A broken prediction is a finding, not a failure.
func checkPredictions(sp *spec, m map[string]float64, res *result) {
	expect := func(ok bool, format string, args ...any) {
		verdict := "holds"
		if !ok {
			verdict = "BROKEN"
		}
		res.note("prediction %s: %s", verdict, fmt.Sprintf(format, args...))
	}
	switch sp.name {
	case "wire-hot":
		expect(m["dram.hit_pct"] == 100, "dram.hit_pct = 100 (got %.4f)", m["dram.hit_pct"])
		// Not ≈ 0 as first predicted: a GET of a key whose last PUT still
		// sits in the open page buffer takes the exclusive lock, and under
		// zipf 0.99 the hot keys are mostly in that state.
		expect(m["shard.fallback_per_kop"] < 150, "shard.fallback_per_kop < 150, all of it reads of just-written keys (got %.4f)", m["shard.fallback_per_kop"])
		expect(m["loadgen.null_kops"] >= 2*m["trace.window_kops"], "loadgen.null_kops ≥ 2 × throughput (%.1f vs %.1f)", m["loadgen.null_kops"], m["trace.window_kops"])
	case "wire-wal":
		expect(m["wal.group_mean"] < 2, "wal.group_mean < 2 (got %.3f)", m["wal.group_mean"])
	case "lib-churn":
		expect(m["device.gc_moved_per_user_byte"] == 0, "device.gc_moved_per_user_byte = 0 (got %g)", m["device.gc_moved_per_user_byte"])
	case "lib-cold":
		expect(m["core.frpg"] >= 0.2 && m["core.frpg"] <= 0.5, "core.frpg in [0.2, 0.5] (got %.4f)", m["core.frpg"])
	}
}
