package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hopscotch"
	"repro/internal/index"
	"repro/internal/kvwire"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// replay is the traced run's state: the requests client 0's stream yields
// next after the window, replayed by one goroutine at each layer boundary
// in turn. A request that inserts a key does so at the first boundary and
// overwrites it at the later ones: the price of replaying one stream
// against one store.
type replay struct {
	sp   *spec
	ops  []op
	keys *keyTable
	tr   *tracer

	// set is the store the in-process boundaries run against: the
	// workload's own set, or the twin of a wire workload's server.
	set   *shard.Set
	devs  []*device.Device
	route []uint8     // shard of each op's key
	sigs  []index.Sig // signature of each op's key

	// anchor[i] is a preloaded key of shard i (see reclaim).
	anchor [][]byte

	kbuf, vbuf, rbuf []byte
	version          uint64
	scanN            int
	touch            byte
}

func newReplay(sp *spec, st *stream, keys *keyTable, set *shard.Set) *replay {
	r := &replay{
		sp: sp, keys: keys, set: set, devs: devices(set),
		ops:  make([]op, sp.traceOps),
		vbuf: newValueBuf(sp.valMax), kbuf: make([]byte, 0, keyLen),
		// Above any version the window wrote, so the restart check's
		// "acknowledged or later" holds for keys the replay overwrites.
		version: 1 << 40,
	}
	scheme := r.devs[0].Scheme()
	r.route = make([]uint8, len(r.ops))
	r.sigs = make([]index.Sig, len(r.ops))
	for i := range r.ops {
		r.ops[i] = st.next()
		key := keys.key(r.ops[i].id, r.kbuf)
		r.route[i] = uint8(set.RouteKey(key))
		r.sigs[i] = scheme.Compute(key)
	}
	r.anchor = make([][]byte, set.N())
	for id, found := uint64(0), 0; found < set.N() && id < sp.records; id++ {
		key := keys.key(id, nil)
		if i := set.RouteKey(key); r.anchor[i] == nil {
			r.anchor[i] = key
			found++
		}
	}
	// Chain layers record one span per op, leaves at most one each.
	r.tr = newTracer(len(r.ops), int(numLayers))
	r.calibrate()
	return r
}

// calibrate times an empty call through the very loop the passes use; the
// median of those spans is the timer's own share of every span.
func (r *replay) calibrate() {
	real := r.tr
	r.tr = newTracer(len(r.ops), 1)
	version := r.version
	empty := func(int, op, []byte, []byte) (bool, error) { return false, nil }
	r.pass(layerClient, kindGet, empty, nil) // the empty call cannot fail
	durs := make([]float64, len(r.tr.spans))
	for i, s := range r.tr.spans {
		durs[i] = float64(s.end - s.start)
	}
	real.timerNs = median(durs)
	r.tr, r.version = real, version
}

func kindOf(o op) spanKind {
	switch o.kind {
	case workload.OpStore:
		return kindPut
	case workload.OpIterate:
		return kindScan
	default:
		return kindGet
	}
}

// pass replays every op at one layer: call is timed, check (optional)
// runs outside the span. kind overrides the op's own kind for leaves.
func (r *replay) pass(layer layerID, leaf spanKind, call func(i int, o op, key, val []byte) (skip bool, err error), check func(i int, o op) error) error {
	for i, o := range r.ops {
		key := r.keys.key(o.id, r.kbuf)
		var val []byte
		if o.kind == workload.OpStore {
			r.version++
			val = fillValue(r.vbuf, o.size, o.id, r.version)
		}
		// A real caller has just built or parsed the key; without this the
		// span would pay the cache miss of fetching it from the key table.
		r.touch += key[0]
		s := r.tr.now()
		skip, err := call(i, o, key, val)
		e := r.tr.now()
		if err != nil {
			return fmt.Errorf("traced run, %s boundary, request %d (%v key %d): %w", layerNames[layer], i, o.kind, o.id, err)
		}
		if skip {
			continue
		}
		kind := leaf
		if kind == numKinds {
			kind = kindOf(o)
		}
		r.tr.add(layer, kind, i, s, e)
		if check != nil {
			if err := check(i, o); err != nil {
				return fmt.Errorf("traced run, %s boundary, request %d: %w", layerNames[layer], i, err)
			}
		}
	}
	return nil
}

// chain marks a pass whose spans take the op's own kind.
const chain = numKinds

// viaTarget replays at the client or shard boundary.
func (r *replay) viaTarget(layer layerID, tgt target) error {
	call := func(i int, o op, key, val []byte) (bool, error) {
		switch o.kind {
		case workload.OpRetrieve:
			v, err := tgt.get(r.rbuf[:0], key)
			r.rbuf = v
			return false, err
		case workload.OpStore:
			return false, tgt.put(key, val)
		default:
			r.scanN = 0
			return false, tgt.scan(key[:r.sp.prefixLen], func(_, _ []byte) { r.scanN++ })
		}
	}
	return r.pass(layer, chain, call, r.checkReply)
}

func (r *replay) checkReply(i int, o op) error {
	switch o.kind {
	case workload.OpRetrieve:
		if id, ok := valueID(r.rbuf); !ok || id != o.id {
			return fmt.Errorf("value carries key ID %d, want %d", id, o.id)
		}
	case workload.OpIterate:
		if r.scanN == 0 {
			return fmt.Errorf("scan of key %d's group returned nothing", o.id)
		}
	}
	return nil
}

// viaDevice replays at the device boundary: what shard.Set does around
// each device call, minus routing and locks. A GET tries the lock-free
// tier first and falls back to the exclusive one, as the shard does.
func (r *replay) viaDevice() error {
	call := func(i int, o op, key, val []byte) (bool, error) {
		dev := r.devs[r.route[i]]
		switch o.kind {
		case workload.OpRetrieve:
			v, _, err := dev.TryRetrieveOptimistic(dev.Now(), key, r.rbuf[:0])
			if errors.Is(err, index.ErrNeedExclusive) || errors.Is(err, index.ErrOptimisticRetry) {
				v, _, err = dev.RetrieveAppend(dev.Now(), key, r.rbuf[:0])
			}
			r.rbuf = v
			return false, err
		case workload.OpStore:
			_, err := dev.Store(dev.Now(), key, val)
			return false, err
		default:
			var n atomic.Int64
			err := r.eachDevice(func(d *device.Device) error {
				entries, _, err := d.Iterate(d.Now(), key[:r.sp.prefixLen], true)
				n.Add(int64(len(entries)))
				return err
			})
			r.scanN = int(n.Load())
			return false, err
		}
	}
	check := func(i int, o op) error {
		if o.kind == workload.OpStore {
			// The shard closes the write epoch after every direct store.
			r.devs[r.route[i]].AdvanceEpoch()
		}
		return r.checkReply(i, o)
	}
	return r.pass(layerDevice, chain, call, check)
}

// viaCore replays the index work of each op: Lookup for a GET, Lookup
// then Insert of the pointer found for a PUT (what device.Store asks of
// the index, with the record pointer left as it is), PrefixRecords for a
// scan.
func (r *replay) viaCore() error {
	call := func(i int, o op, key, _ []byte) (bool, error) {
		idx := r.devs[r.route[i]].Index()
		switch o.kind {
		case workload.OpRetrieve:
			_, ok, err := idx.Lookup(r.sigs[i])
			if err == nil && !ok {
				err = errors.New("index has no record")
			}
			return false, err
		case workload.OpStore:
			rp, ok, err := idx.Lookup(r.sigs[i])
			if err != nil || !ok {
				return !ok, err
			}
			_, _, err = idx.Insert(r.sigs[i], rp)
			return false, err
		default:
			low := r.devs[0].Scheme().PrefixLow(key[:r.sp.prefixLen])
			return false, r.eachDevice(func(d *device.Device) error {
				sc, ok := d.Index().(index.PrefixScanner)
				if !ok {
					return device.ErrNoIterator
				}
				_, err := sc.PrefixRecords(low)
				return err
			})
		}
	}
	return r.pass(layerCore, chain, call, func(i int, o op) error { return r.reclaim(i, o) })
}

// eachDevice runs f on every shard's device at once, as shard.Set fans a
// scan out, and joins the errors.
func (r *replay) eachDevice(f func(*device.Device) error) error {
	errs := make([]error, len(r.devs))
	var wg sync.WaitGroup
	for i, d := range r.devs {
		wg.Add(1)
		go func(i int, d *device.Device) {
			defer wg.Done()
			errs[i] = f(d)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reclaim lets the device free what the index retired during op i. A
// table the index evicts goes back to its pool only when the device's
// next command collects the reclamation domain; calling the index
// directly skips that, and every later page-in would allocate a fresh
// table. An EXIST of a fixed key is the cheapest command that collects.
func (r *replay) reclaim(i int, o op) error {
	for si, d := range r.devs {
		if o.kind != workload.OpIterate && si != int(r.route[i]) {
			continue
		}
		if d.ReclaimStats().Pending == 0 || r.anchor[si] == nil {
			continue
		}
		if _, _, err := d.Exist(d.Now(), r.anchor[si]); err != nil {
			return err
		}
	}
	return nil
}

// viaHopscotch replays each op's table access on a bare record table of
// the device's size, 80 % full of the workload's own signatures: Get for
// a GET, Put for a PUT (in place for an update; a fresh signature, taken
// out again after the span, for an insert).
func (r *replay) viaHopscotch() (encodeUs, decodeUs float64, err error) {
	pageSize := r.devs[0].Geometry().PageSize
	t := hopscotch.New(core.RecordsPerTable(pageSize, false), core.DefaultHopRange)
	scheme := r.devs[0].Scheme()
	resident := make([]uint64, 0, t.Cap()*8/10)
	for id := uint64(0); len(resident) < cap(resident); id++ {
		sig := scheme.Compute(formatKey(r.kbuf[:0], id)).Lo
		if _, err := t.Put(sig, id+1); err != nil {
			continue // neighbourhood full: the device would re-configure; skip the key
		}
		resident = append(resident, sig)
	}
	call := func(i int, o op, _, _ []byte) (bool, error) {
		sig := resident[r.sigs[i].Lo%uint64(len(resident))]
		switch {
		case o.kind == workload.OpRetrieve:
			if _, ok := t.Get(sig); !ok {
				return false, errors.New("resident signature not found")
			}
		case o.kind == workload.OpStore && o.id < r.sp.records:
			if _, err := t.Put(sig, uint64(i)); err != nil {
				return false, err
			}
		case o.kind == workload.OpStore:
			if _, err := t.Put(^sig, uint64(i)); err != nil {
				return true, nil // no slot in the neighbourhood: not a timing sample
			}
		default:
			return true, nil
		}
		return false, nil
	}
	check := func(i int, o op) error {
		if o.kind == workload.OpStore && o.id >= r.sp.records {
			t.Delete(^resident[r.sigs[i].Lo%uint64(len(resident))])
		}
		return nil
	}
	if err := r.pass(layerHopscotch, chain, call, check); err != nil {
		return 0, 0, err
	}
	// Encode and decode are the CPU price of a cache write-back and a
	// page-in: per table, not per op, so they are timed beside the tree.
	const rounds = 50
	buf := make([]byte, t.EncodedBytes())
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		t.EncodeTo(buf)
	}
	encodeUs = float64(time.Since(t0).Nanoseconds()) / rounds / 1e3
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if err := t.DecodeFrom(buf); err != nil {
			return 0, 0, err
		}
	}
	decodeUs = float64(time.Since(t0).Nanoseconds()) / rounds / 1e3
	return encodeUs, decodeUs, nil
}

// leafKVWire replays the codec work of each op's round trip: encode and
// parse the request, encode and parse the response.
func (r *replay) leafKVWire() error {
	var req kvwire.Request
	var resp kvwire.Response
	var reqBuf, respBuf []byte
	value := newValueBuf(r.sp.valMin)
	call := func(i int, o op, key, val []byte) (bool, error) {
		id := uint64(i)
		switch o.kind {
		case workload.OpRetrieve:
			reqBuf = kvwire.AppendGet(reqBuf[:0], id, key)
		case workload.OpStore:
			reqBuf = kvwire.AppendPut(reqBuf[:0], id, key, val)
		default:
			return true, nil
		}
		if err := req.Parse(reqBuf[4:]); err != nil {
			return false, err
		}
		if o.kind == workload.OpRetrieve {
			respBuf = kvwire.AppendValueResponse(respBuf[:0], id, value)
		} else {
			respBuf = kvwire.AppendOK(respBuf[:0], id)
		}
		if err := resp.Parse(respBuf[4:]); err != nil {
			return false, err
		}
		if o.kind == workload.OpRetrieve {
			_, err := kvwire.ParseValuePayload(resp.Payload)
			return false, err
		}
		return false, nil
	}
	return r.pass(layerKVWire, kindCodec, call, nil)
}

// leafHash replays the signature computation shard.Set does to route.
func (r *replay) leafHash() error {
	scheme := r.devs[0].Scheme()
	var sink uint64
	call := func(i int, _ op, key, _ []byte) (bool, error) {
		sink += scheme.Compute(key).Lo
		return false, nil
	}
	err := r.pass(layerHash, kindSig, call, nil)
	if sink == 1 {
		return errors.New("unreachable: keeps the hash from being optimised away")
	}
	return err
}

// leafWAL replays the log work of each PUT on a scratch log beside the
// server's: an Append of a group of `group` records (the size the window
// observed) followed, under fsync=group, by the Sync the committer issues
// when its queue is empty. The span belongs to the group's last op.
func (r *replay) leafWAL(dir string, group int) error {
	policy, err := wal.ParsePolicy(r.sp.opts.WAL.Fsync)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Fsync: policy})
	if err != nil {
		return err
	}
	defer log.Close()
	if _, err := log.Replay(func(*wal.Record) error { return nil }); err != nil {
		return err
	}
	recs := make([]wal.Record, 0, group)
	var held [][]byte // records alias their op's key and value until appended
	call := func(i int, o op, key, val []byte) (bool, error) {
		if o.kind != workload.OpStore {
			return true, nil
		}
		k := append([]byte(nil), key...)
		v := append([]byte(nil), val...)
		held = append(held, k, v)
		recs = append(recs, wal.Record{Seq: log.ReserveSeqs(1), Op: wal.OpPut, Sig: r.sigs[i].Lo, Key: k, Value: v})
		if len(recs) < group {
			return true, nil
		}
		err := log.Append(recs)
		if err == nil && policy == wal.FsyncGroup {
			err = log.Sync()
		}
		recs, held = recs[:0], held[:0]
		return false, err
	}
	return r.pass(layerWAL, kindAppend, call, nil)
}

// hostFsyncUs is the file system's own price for a small write made
// durable: the mean of 200 write+fsync of 160 bytes to a file in dir.
func hostFsyncUs(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const rounds = 200
	small := make([]byte, 160)
	var total time.Duration
	for i := 0; i < rounds; i++ {
		if _, err := f.Write(small); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / rounds / 1e3, nil
}

// leafLayoutNAND replays the page work under each device call: a PUT
// packs its pair into a page builder, and each page that fills is
// finished, programmed to and read back from a scratch flash array (one
// nand span per page, on the op that found it full); a GET decodes one
// pair of the last full page.
func (r *replay) leafLayoutNAND() error {
	geo := r.devs[0].Geometry()
	geo.Channels, geo.DiesPerChan, geo.BlocksPerDie = 1, 1, 2
	flash := nand.New(geo, sim.NewClock())
	b := layout.NewPageBuilder(geo.PageSize)
	spare := layout.EncodeDataSpare(0)
	var page []byte
	pairs := 0
	nextPage := 0

	// programPage moves the builder's page through the scratch array.
	programPage := func() error {
		data := b.Bytes()
		if nextPage == geo.PagesPerBlock*geo.BlocksPerDie {
			for blk := 0; blk < geo.BlocksPerDie; blk++ {
				if _, err := flash.Erase(0, nand.BlockID(blk)); err != nil {
					return err
				}
			}
			flash.RecycleBuffers(flash.TakeLimbo())
			nextPage = 0
		}
		ppa := nand.PPA(nextPage)
		nextPage++
		if _, err := flash.Program(0, ppa, data, spare); err != nil {
			return err
		}
		stored, _, _, err := flash.Read(0, ppa)
		page, pairs = stored, b.Count()
		b.Reset()
		return err
	}
	// Turn the scratch array over once, so its page buffers come from the
	// recycle pool as the device's do in steady state, and leave one full
	// page for the first GETs to decode.
	filler := newValueBuf(r.sp.valMax)
	for n := 0; n <= geo.PagesPerBlock*geo.BlocksPerDie; n++ {
		for id := uint64(0); ; id++ {
			p := layout.Pair{Sig: id, Key: formatKey(nil, id), Value: fillValue(filler, r.sp.valMin, id, 0), Seq: id, Epoch: 1}
			if _, ok := b.Add(p); !ok {
				break
			}
		}
		if err := programPage(); err != nil {
			return err
		}
	}

	for i, o := range r.ops {
		key := r.keys.key(o.id, r.kbuf)
		switch o.kind {
		case workload.OpStore:
			p := layout.Pair{Sig: r.sigs[i].Lo, Key: key, Value: fillValue(r.vbuf, o.size, o.id, 0), Seq: uint64(i), Epoch: 1}
			s := r.tr.now()
			_, ok := b.Add(p)
			e := r.tr.now()
			if !ok {
				// The page is full: program it, and the pair opens the next.
				s = r.tr.now()
				err := programPage()
				e = r.tr.now()
				if err != nil {
					return fmt.Errorf("traced run, nand leaf, request %d: %w", i, err)
				}
				r.tr.add(layerNAND, kindPageCopy, i, s, e)
				s = r.tr.now()
				_, ok = b.Add(p)
				e = r.tr.now()
				if !ok {
					return fmt.Errorf("traced run, layout leaf, request %d: pair does not fit an empty page", i)
				}
			}
			r.tr.add(layerLayout, kindPack, i, s, e)
		case workload.OpRetrieve:
			s := r.tr.now()
			info, _, err := layout.SigInfoAt(page, i%pairs)
			if err == nil {
				_, _, _, err = layout.DecodePairAt(page, int(info.Offset))
			}
			e := r.tr.now()
			if err != nil {
				return fmt.Errorf("traced run, layout leaf, request %d: %w", i, err)
			}
			r.tr.add(layerLayout, kindDecode, i, s, e)
		}
	}
	return nil
}
