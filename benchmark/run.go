package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

// target is the surface a workload drives: shard.Set in process, or
// internal/client over the wire.
type target interface {
	// get appends key's value to dst.
	get(dst, key []byte) ([]byte, error)
	put(key, value []byte) error
	// scan calls visit for every entry whose key starts with prefix.
	scan(prefix []byte, visit func(key, value []byte)) error
}

// slices is how many equal parts a timed window is cut into. Throughput
// is the median part's rate, so a burst of hypervisor steal that hits a
// minority of the parts does not move it.
const slices = 10

// maxFailures stops a worker whose target is gone instead of letting it
// spin through failing calls until the window closes.
const maxFailures = 100

// Latencies are kept apart by request kind: reads (GET, SCAN) and writes.
const (
	kindRead = iota
	kindWrite
)

type sliceStats struct {
	ops uint64
	lat [2]hist // by kindRead, kindWrite
}

// worker is one closed-loop caller: it issues its stream's next request
// only after the previous one has returned and been checked.
type worker struct {
	sp   *spec
	st   *stream
	tgt  target
	keys *keyTable
	// acked[id] is the last acknowledged version of preloaded key id;
	// only the key's owner writes the element.
	acked []uint64

	vbuf, kbuf, rbuf []byte
	version          uint64

	sl                   []sliceStats
	attempted, failed    uint64
	reads, writes, scans uint64 // completed and verified, trailing ops included
	bytesPut             uint64
	maxNs                int64
	firstErr             error
	scanBad              error // set by the scan visitor
	scanN                int
	scanLo, scanHi       uint64
}

func newWorker(sp *spec, w int, seed int64, tgt target, keys *keyTable, acked []uint64) (*worker, error) {
	st, err := newStream(*sp, w, seed)
	if err != nil {
		return nil, err
	}
	return &worker{
		sp: sp, st: st, tgt: tgt, keys: keys, acked: acked,
		vbuf: newValueBuf(sp.valMax), kbuf: make([]byte, 0, keyLen),
		sl: make([]sliceStats, slices),
	}, nil
}

// exec runs one request and checks its result. It returns the wall-clock
// latency of the call into the target alone: generating the request and
// checking the reply are outside it.
func (wk *worker) exec(o op) (lat time.Duration, err error) {
	key := wk.keys.key(o.id, wk.kbuf)
	switch o.kind {
	case workload.OpRetrieve:
		t0 := time.Now()
		v, err := wk.tgt.get(wk.rbuf[:0], key)
		lat = time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("get %s: %w", key, err)
		}
		if cap(v) > cap(wk.rbuf) {
			wk.rbuf = v[:0]
		}
		if id, ok := valueID(v); !ok || id != o.id {
			return lat, fmt.Errorf("get %s: value of %d bytes carries key ID %d, want %d", key, len(v), id, o.id)
		}
		wk.reads++
	case workload.OpStore:
		wk.version++
		val := fillValue(wk.vbuf, o.size, o.id, wk.version)
		t0 := time.Now()
		err := wk.tgt.put(key, val)
		lat = time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("put %s: %w", key, err)
		}
		if o.id < uint64(len(wk.acked)) {
			wk.acked[o.id] = wk.version
		}
		wk.writes++
		wk.bytesPut += uint64(len(key) + len(val))
	case workload.OpIterate:
		wk.scanLo, wk.scanHi = scanGroup(o.id, wk.sp.prefixLen)
		wk.scanN, wk.scanBad = 0, nil
		t0 := time.Now()
		err := wk.tgt.scan(key[:wk.sp.prefixLen], wk.visit)
		lat = time.Since(t0)
		if err != nil {
			return lat, fmt.Errorf("scan %s: %w", key[:wk.sp.prefixLen], err)
		}
		if wk.scanBad != nil {
			return lat, wk.scanBad
		}
		// Every preloaded key of the group must be there; inserted ones
		// come and go with the other workers' progress.
		want := 0
		if wk.scanLo < wk.sp.records {
			want = int(min(wk.scanHi, wk.sp.records) - wk.scanLo)
		}
		if wk.scanN < want {
			return lat, fmt.Errorf("scan %s: %d entries, want at least %d", key[:wk.sp.prefixLen], wk.scanN, want)
		}
		wk.scans++
	default:
		return 0, fmt.Errorf("stream produced %v: not part of any workload", o.kind)
	}
	return lat, nil
}

// visit checks one scan entry: its key belongs to the scanned group and
// its value carries that key's ID.
func (wk *worker) visit(key, value []byte) {
	wk.scanN++
	if wk.scanBad != nil {
		return
	}
	id, ok := parseKeyID(key)
	if !ok || id < wk.scanLo || id >= wk.scanHi {
		wk.scanBad = fmt.Errorf("scan returned key %q outside group [%d,%d)", key, wk.scanLo, wk.scanHi)
		return
	}
	if vid, ok := valueID(value); !ok || vid != id {
		wk.scanBad = fmt.Errorf("scan entry %q carries key ID %d", key, vid)
	}
}

// loop issues requests until dur has passed since start. A request that
// returns after the window closed is checked and counted in the totals
// the counter reconciliation uses, but not in the window's statistics.
func (wk *worker) loop(start time.Time, dur time.Duration) {
	for {
		o := wk.st.next()
		lat, err := wk.exec(o)
		end := time.Since(start)
		if end >= dur {
			if err != nil {
				wk.fail(err)
			}
			return
		}
		wk.attempted++
		if err != nil {
			wk.fail(err)
			if wk.failed >= maxFailures {
				return
			}
			continue
		}
		s := &wk.sl[int(end*slices/dur)]
		s.ops++
		kind := kindRead
		if o.kind == workload.OpStore {
			kind = kindWrite
		}
		s.lat[kind].record(int64(lat))
		if int64(lat) > wk.maxNs {
			wk.maxNs = int64(lat)
		}
	}
}

func (wk *worker) fail(err error) {
	wk.failed++
	if wk.firstErr == nil {
		wk.firstErr = err
	}
}

// window is the merged outcome of one timed run.
type window struct {
	dur                  time.Duration
	sl                   []sliceStats
	lat                  [2]hist // whole window, by kindRead, kindWrite
	ops                  uint64
	attempted, failed    uint64
	reads, writes, scans uint64 // totals including trailing requests
	bytesPut             uint64
	maxNs                int64
	firstErr             error
}

// runWindow starts every worker at once and merges what they measured.
func runWindow(workers []*worker, dur time.Duration) *window {
	var wg sync.WaitGroup
	release := make(chan struct{})
	var start time.Time
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			<-release
			wk.loop(start, dur)
		}(wk)
	}
	start = time.Now()
	close(release)
	wg.Wait()

	win := &window{dur: dur, sl: make([]sliceStats, slices)}
	for _, wk := range workers {
		for i := range wk.sl {
			win.sl[i].ops += wk.sl[i].ops
			for k := range win.sl[i].lat {
				win.sl[i].lat[k].merge(&wk.sl[i].lat[k])
			}
		}
		win.attempted += wk.attempted
		win.failed += wk.failed
		win.reads += wk.reads
		win.writes += wk.writes
		win.scans += wk.scans
		win.bytesPut += wk.bytesPut
		win.maxNs = max(win.maxNs, wk.maxNs)
		if win.firstErr == nil {
			win.firstErr = wk.firstErr
		}
	}
	for i := range win.sl {
		win.ops += win.sl[i].ops
		for k := range win.lat {
			win.lat[k].merge(&win.sl[i].lat[k])
		}
	}
	return win
}

// rates is each slice's completion rate in kops/s.
func (w *window) rates() []float64 {
	rates := make([]float64, len(w.sl))
	per := w.dur.Seconds() / float64(len(w.sl))
	for i := range w.sl {
		rates[i] = float64(w.sl[i].ops) / per / 1e3
	}
	return rates
}

// throughputKops is the median slice's completion rate.
func (w *window) throughputKops() float64 { return median(w.rates()) }

func (w *window) sliceRates() string {
	var b strings.Builder
	for _, r := range w.rates() {
		fmt.Fprintf(&b, " %.1f", r)
	}
	return b.String()
}

// minSliceSamples is what a slice needs on average for its p99 to have ten
// samples beyond it (and its p90 a hundred).
const minSliceSamples = 1000

// latencyUs is the p-th percentile of read or write latency in µs: the
// median over slices of each slice's percentile where the window has
// enough samples for that, the whole window's percentile otherwise (the
// 5 % inserts of lib-scan).
func (w *window) latencyUs(kind int, p float64) float64 {
	whole := &w.lat[kind]
	if whole.n < minSliceSamples*uint64(len(w.sl)) {
		return whole.percentile(p) / 1e3
	}
	vals := make([]float64, 0, len(w.sl))
	for i := range w.sl {
		if h := &w.sl[i].lat[kind]; h.n > 0 {
			vals = append(vals, h.percentile(p)/1e3)
		}
	}
	return median(vals)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
