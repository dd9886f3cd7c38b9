package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/shard"
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	div     int    // 1, or 50 for the smoke test
	outDir  string // scratch and span files; inside the benchmark's directory
	// inProcServer serves wire workloads from internal/server inside this
	// process, so the smoke test needs no go build.
	inProcServer bool
}

// A run sets the workload up at least setupRepeats times, and goes on
// while the set-ups so far took less than setupMinTotal together (up to
// setupMaxRepeats): opening an empty store takes a fraction of a
// millisecond, and only the median of many such is steady. setup_s is the
// median; the window runs on the last set-up.
const (
	setupRepeats    = 3
	setupMaxRepeats = 101
	setupMinTotal   = 0.2 // seconds
)

// restarts is how many times wire-wal restarts the killed server.
const restarts = 3

// sampleKeys is how many acknowledged keys the wire-wal restart check
// reads back.
const sampleKeys = 10_000

// instance is a workload that has been set up and is ready for traffic.
type instance struct {
	sp   *spec
	keys *keyTable
	tgt  target
	// set is the in-process store of a lib workload (nil over the wire).
	set *shard.Set
	// srv and wt are the server and client of a wire workload.
	srv    kvServer
	wt     wireTarget
	walDir string
	bin    string
	cfg    *runConfig
	// ackedVersions[id] is the last version of preloaded key id a client
	// saw acknowledged (wire-wal only).
	ackedVersions []uint64
	// workers are the timed window's clients; the traced run continues
	// client 0's stream.
	workers []*worker
}

func (in *instance) counters() (counters, error) {
	if in.set != nil {
		return countersOfSet(in.set), nil
	}
	return wireCounters(in.wt)
}

// setup brings the workload to the state the window starts from. For a
// wire workload that is exec → listening → preloaded; in process it is
// open → preloaded → warmed up.
func setup(sp *spec, cfg *runConfig, bin string, rep int) (*instance, error) {
	in := &instance{sp: sp, cfg: cfg, bin: bin, keys: newKeyTable(sp.records)}
	if !sp.wire {
		set, err := setupLib(sp, in.keys, "")
		if err != nil {
			return nil, err
		}
		in.set, in.tgt = set, libTarget{set}
		return in, nil
	}
	if sp.wal {
		in.walDir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d-%d", sp.name, os.Getpid(), rep))
		if err := os.RemoveAll(in.walDir); err != nil {
			return nil, err
		}
	}
	if err := in.startServer(); err != nil {
		return nil, err
	}
	wt, err := dialWire(in.srv.addr(), sp.conns)
	if err != nil {
		in.discard()
		return nil, fmt.Errorf("dial %s: %w", in.srv.addr(), err)
	}
	in.wt, in.tgt = wt, wt
	if err := preloadWire(sp, wt, in.keys); err != nil {
		in.discard()
		return nil, err
	}
	return in, nil
}

func (in *instance) startServer() error {
	var err error
	if in.cfg.inProcServer {
		in.srv, err = startLocalServer(in.sp, in.walDir)
	} else {
		in.srv, err = startProcServer(in.bin, in.sp.serverArgs(in.walDir), in.sp.wal)
	}
	return err
}

// discard drops an instance without the end-of-run checks: repeated
// set-ups, and error paths.
func (in *instance) discard() {
	if in.wt.c != nil {
		in.wt.c.Close()
	}
	if in.srv != nil {
		in.srv.kill()
	}
	if in.walDir != "" {
		os.RemoveAll(in.walDir)
	}
	in.set = nil
}

// result is one run of one workload.
type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]float64
	// Notes are the findings a person should read: failed checks, broken
	// predictions, flags.
	Notes []string
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runWorkload performs one run: the end-to-end measurement, or (trace) the
// per-layer one.
func runWorkload(sp *spec, cfg *runConfig) (*result, error) {
	if err := checkKeyFormat(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(loadProcs())
	bin := ""
	if sp.wire && !cfg.inProcServer {
		var err error
		if bin, err = buildServer(cfg.outDir); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		return runTraced(sp, cfg, bin)
	}
	return runEndToEnd(sp, cfg, bin)
}

func runEndToEnd(sp *spec, cfg *runConfig, bin string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]float64{}}

	var in *instance
	setups := make([]float64, 0, setupRepeats)
	for rep, total := 0, 0.0; rep < setupRepeats || (total < setupMinTotal && rep < setupMaxRepeats); rep++ {
		if in != nil {
			in.discard()
			in = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if in, err = setup(sp, cfg, bin, rep); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[rep]
	}
	defer in.discard()
	res.note("set up %d times: %.4f s each (median)", len(setups), median(setups))

	steal0 := readCPUTimes()
	win, delta, err := in.timedWindow(cfg.seed, time.Duration(cfg.seconds*float64(time.Second)), res)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.note("window: %.2f %% of CPU time stolen by the hypervisor; slice rates in kops/s %s", stealPct(steal0, readCPUTimes()), win.sliceRates())

	m := res.Metrics
	m["throughput_kops"] = win.throughputKops()
	m["read_p50_us"] = win.latencyUs(kindRead, 50)
	m["read_p90_us"] = win.latencyUs(kindRead, 90)
	m["write_p90_us"] = win.latencyUs(kindWrite, 90)
	m["setup_s"] = median(setups)
	ops := float64(win.reads + win.writes + win.scans)
	m["flash_reads_per_op"] = ratio(delta.f(cFlashReads), ops)
	if in.srv != nil && in.srv.pid() != 0 {
		m["peak_rss_mb"] = peakRSSMB(in.srv.pid())
	} else {
		m["peak_rss_mb"] = peakRSSMB(os.Getpid())
	}

	if sp.wal {
		if _, err := in.killAndRecover(res); err != nil {
			return nil, err
		}
	}
	if in.set != nil {
		if err := in.set.Close(); err != nil {
			res.fail("closing the set: %v", err)
		}
	}
	return res, nil
}

// timedWindow runs the workload's clients for dur against a set-up
// instance and reconciles what they saw with the program's own counters.
func (in *instance) timedWindow(seed int64, dur time.Duration, res *result) (*window, counters, error) {
	sp := in.sp
	var acked []uint64
	if sp.wal {
		acked = make([]uint64, sp.records)
	}
	workers := make([]*worker, sp.clients)
	for w := range workers {
		var err error
		if workers[w], err = newWorker(sp, w, seed, in.tgt, in.keys, acked); err != nil {
			return nil, counters{}, err
		}
	}
	in.ackedVersions, in.workers = acked, workers
	if in.set != nil {
		in.set.ResetOpStats()
	}
	before, err := in.counters()
	if err != nil {
		return nil, counters{}, err
	}
	runtime.GC() // start every window from a collected heap
	win := runWindow(workers, dur)
	after, err := in.counters()
	if err != nil {
		return nil, counters{}, err
	}
	delta := after.sub(before)

	if win.failed > 0 {
		res.fail("%d of %d requests failed, first: %v", win.failed, win.attempted, win.firstErr)
	}
	// The program's counters must agree with what the callers saw.
	if uint64(delta[cStores]) != win.writes {
		res.fail("Stores grew by %d, callers had %d writes acknowledged", delta[cStores], win.writes)
	}
	if uint64(delta[cBytesWritten]) != win.bytesPut {
		res.fail("BytesWritten grew by %d, callers had %d payload bytes acknowledged", delta[cBytesWritten], win.bytesPut)
	}
	if uint64(delta[cRetrieves]) < win.reads {
		res.fail("Retrieves grew by %d, callers completed %d reads", delta[cRetrieves], win.reads)
	}
	if in.set != nil {
		if want := win.scans * uint64(in.set.N()); uint64(delta[cIterates]) != want {
			res.fail("Iterates grew by %d, callers completed %d scans over %d shards", delta[cIterates], win.scans, in.set.N())
		}
		// RHIK's bound: no GET's index lookup costs more than one flash read.
		if worst := maxMetaPerGet(in.set); worst > 1 {
			res.fail("a GET's index lookup cost %d flash reads; the bound is 1", worst)
		}
	}
	return win, delta, nil
}

// recovery is what killAndRecover measured.
type recovery struct {
	krecPerS []float64
	replayS  []float64
	records  int64
}

// killAndRecover ends the server with SIGKILL, restarts it `restarts`
// times timing exec → first successful GET, and checks that a sample of
// acknowledged writes reads back at its last acknowledged version or a
// later one. kill -9 leaves the OS page cache intact, so this checks the
// log's contents and replay, not what reached the disk.
func (in *instance) killAndRecover(res *result) (recovery, error) {
	var rec recovery
	in.wt.c.Close()
	in.wt = wireTarget{}
	if err := in.srv.kill(); err != nil {
		return rec, fmt.Errorf("kill -9: %w", err)
	}
	probe := in.keys.key(0, nil)
	for i := 0; i < restarts; i++ {
		t0 := time.Now()
		if err := in.startServer(); err != nil {
			return rec, fmt.Errorf("restart %d: %w", i, err)
		}
		if err := firstGet(in.srv.addr(), probe); err != nil {
			return rec, fmt.Errorf("restart %d: %w", i, err)
		}
		dt := time.Since(t0).Seconds()
		rec.records = in.srv.replayed()
		rec.replayS = append(rec.replayS, dt)
		rec.krecPerS = append(rec.krecPerS, float64(rec.records)/dt/1e3)
		if i < restarts-1 {
			if err := in.srv.kill(); err != nil {
				return rec, err
			}
		}
	}
	if rec.records == 0 {
		res.fail("restarted server replayed no WAL records")
	}

	// Written keys first, then preloaded-only ones, up to the sample size.
	var written, untouched []uint64
	for id, v := range in.ackedVersions {
		if v > 0 {
			written = append(written, uint64(id))
		} else {
			untouched = append(untouched, uint64(id))
		}
	}
	sample := strideSample(written, sampleKeys)
	sample = append(sample, strideSample(untouched, sampleKeys-len(sample))...)
	wt, err := dialWire(in.srv.addr(), in.sp.conns)
	if err != nil {
		return rec, err
	}
	in.wt = wt
	lost, firstLost := 0, error(nil)
	var mu sync.Mutex
	var wg sync.WaitGroup
	const par = 16
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(sample); i += par {
				id := sample[i]
				v, err := wt.c.Get(in.keys.key(id, nil))
				if err == nil {
					if vid, ok := valueID(v); !ok || vid != id {
						err = fmt.Errorf("value carries key ID %d", vid)
					} else if got, want := valueVersion(v), in.ackedVersions[id]; got < want {
						err = fmt.Errorf("version %d, but %d was acknowledged", got, want)
					}
				}
				if err != nil {
					mu.Lock()
					lost++
					if firstLost == nil {
						firstLost = fmt.Errorf("key %d: %w", id, err)
					}
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	if lost > 0 {
		res.fail("after kill -9 and restart, %d of %d sampled acknowledged writes are lost or stale, first: %v", lost, len(sample), firstLost)
	}
	res.note("kill -9 check: %d keys read back (%d written in the window), %d lost", len(sample), min(len(written), len(sample)), lost)
	return rec, nil
}

// strideSample picks up to n evenly spaced elements of ids.
func strideSample(ids []uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	if len(ids) <= n {
		return ids
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ids[i*len(ids)/n])
	}
	return out
}
