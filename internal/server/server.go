// Package server exposes a sharded emulated KVSSD (shard.Set) over TCP
// using the kvwire protocol. The design targets the serving-path
// bottlenecks remote KV studies identify: per-connection pipelining,
// bounded queues instead of unbounded buffering, and shard-affine
// dispatch so the device's parallelism survives the network hop.
//
// Each connection runs one reader and one writer goroutine. The reader
// parses frames and dispatches them to bounded worker pools keyed by
// Set.RouteKey. Every shard gets ONE writer worker — mutations on the
// same shard execute in submission order — plus a small READ pool
// (Options.ReadPool) serving GET/EXIST: the shard's RWMutex lets
// DRAM-resident lookups run concurrently, so several read workers per
// shard extract real parallelism from a single shard. Reads are
// therefore not ordered against writes admitted concurrently on the
// same shard; clients needing read-your-write order must await the
// write's response before issuing the read (the wire protocol's
// request/response matching already encourages exactly that). BATCH and
// STATS requests, which span shards (Set.Apply fans out internally),
// run on a separate small executor pool. Responses complete out of
// order and are matched by request ID.
//
// Backpressure is explicit: when the global inflight limit or a
// worker's queue is full the server immediately answers BUSY — the
// request is guaranteed not to have executed — rather than buffering
// without bound. An optional per-request deadline drops requests that
// sat in queue too long with DEADLINE, again without executing them.
//
// Shutdown drains gracefully: stop accepting, unblock connection
// readers, finish every admitted request, flush every response, then
// checkpoint and close the device.
package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/kvwire"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Options tunes the server.
type Options struct {
	// MaxInflight caps requests admitted but not yet answered, across
	// all connections (default 4096). Excess requests get BUSY.
	MaxInflight int
	// QueueDepth caps each worker's queue (default 256). A full queue
	// answers BUSY.
	QueueDepth int
	// ReadPool is the number of read workers per shard serving GET and
	// EXIST (default 4). Under RHIK a read takes no shard lock (the
	// optimistic tier) unless it needs a page-in, a lazy migration or a
	// value still in an open page buffer, so the pool executes reads
	// concurrently; writes keep one ordered worker per shard regardless.
	ReadPool int
	// RequestTimeout, when positive, drops requests that waited in
	// queue longer than this with DEADLINE instead of executing them.
	RequestTimeout time.Duration
	// Logf receives serving-lifecycle messages (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxInflight <= 0 {
		out.MaxInflight = 4096
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.ReadPool <= 0 {
		out.ReadPool = 4
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Server serves one shard.Set over TCP. Create with New, run with
// Serve, stop with Shutdown (which checkpoints and closes the set).
type Server struct {
	set  *shard.Set
	opts Options

	queues  []chan *task // one per shard: mutations, in submission order
	rqueues []chan *task // one per shard: GET/EXIST, drained by a read pool
	xqueue  chan *task   // cross-shard ops: BATCH, STATS

	inflight atomic.Int64
	tasks    sync.WaitGroup // admitted requests not yet answered
	workers  sync.WaitGroup
	conns    sync.WaitGroup // reader+writer goroutines

	mu      sync.Mutex
	ln      net.Listener
	open    map[*conn]struct{}
	closing bool
	drained chan struct{}

	// Snapshot registry: server-scoped IDs so any connection can read or
	// stream a registered snapshot (see snapshot.go).
	snapMu   sync.Mutex
	snaps    map[uint64]*serverSnap
	nextSnap atomic.Uint64
}

// New wraps set. The server owns the set from the first Serve call:
// Shutdown checkpoints and closes it.
func New(set *shard.Set, opts Options) *Server {
	s := &Server{
		set:     set,
		opts:    opts.withDefaults(),
		open:    make(map[*conn]struct{}),
		drained: make(chan struct{}),
		snaps:   make(map[uint64]*serverSnap),
	}
	s.queues = make([]chan *task, set.N())
	s.rqueues = make([]chan *task, set.N())
	for i := range s.queues {
		s.queues[i] = make(chan *task, s.opts.QueueDepth)
		s.rqueues[i] = make(chan *task, s.opts.QueueDepth)
	}
	s.xqueue = make(chan *task, s.opts.QueueDepth)
	return s
}

// Serve accepts connections on ln until Shutdown. It starts the worker
// pool on first call and returns ErrServerClosed after a graceful stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for i := range s.queues {
		s.workers.Add(1)
		go s.worker(s.queues[i])
		for r := 0; r < s.opts.ReadPool; r++ {
			s.workers.Add(1)
			go s.worker(s.rqueues[i])
		}
	}
	// Cross-shard executors: Set.Apply fans out internally, so a few
	// concurrent executors keep every shard busy under batch load.
	nx := s.set.N()/2 + 2
	for i := 0; i < nx; i++ {
		s.workers.Add(1)
		go s.worker(s.xqueue)
	}

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.open[c] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// Shutdown drains the server: stop accepting, finish every admitted
// request, flush responses, then checkpoint and close the device. Safe
// to call once; blocks until the drain completes.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.drained
		return nil
	}
	s.closing = true
	ln := s.ln
	open := make([]*conn, 0, len(s.open))
	for c := range s.open {
		open = append(open, c)
	}
	s.mu.Unlock()

	s.opts.Logf("server: draining (%d connections)", len(open))
	if ln != nil {
		ln.Close()
	}
	// Unblock connection readers; they stop admitting new requests,
	// then each connection closes its outbound side once its last
	// response is enqueued.
	for _, c := range open {
		c.nc.SetReadDeadline(time.Now())
	}
	s.conns.Wait() // readers and writers done ⇒ all responses flushed
	s.tasks.Wait() // paranoia: no admitted request left unanswered
	for _, q := range s.queues {
		close(q)
	}
	for _, q := range s.rqueues {
		close(q)
	}
	close(s.xqueue)
	s.workers.Wait()
	s.releaseAllSnapshots()

	err := s.set.Close() // checkpoints, then closes every shard
	if err != nil {
		s.opts.Logf("server: checkpoint failed: %v", err)
	} else {
		s.opts.Logf("server: checkpoint complete, device closed")
	}
	close(s.drained)
	return err
}

// task is one admitted request. Key/Value/Ops point into buf, a copy
// owned by the task (the connection's frame buffer is reused as soon as
// the reader moves on).
type task struct {
	c        *conn
	op       kvwire.Op
	id       uint64
	key      []byte
	value    []byte
	ops      []kvwire.BatchOp
	buf      []byte
	vbuf     []byte // reused value scratch for GET replies
	limit    uint64 // scan result cap
	snap     uint64 // snapshot ID for SNAPGET/SNAPRELEASE/BACKUP
	enqueued time.Time
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

func (s *Server) putTask(t *task) {
	t.c = nil
	t.key, t.value, t.ops = nil, nil, t.ops[:0]
	taskPool.Put(t)
}

// worker executes queued tasks until its queue closes.
func (s *Server) worker(q chan *task) {
	defer s.workers.Done()
	for t := range q {
		s.execute(t)
	}
}

func (s *Server) execute(t *task) {
	c := t.c
	defer s.finish(c) // after the response is enqueued
	defer s.putTask(t)
	if d := s.opts.RequestTimeout; d > 0 && time.Since(t.enqueued) > d {
		t.c.reply(func(b []byte) []byte {
			return kvwire.AppendError(b, t.id, kvwire.StatusDeadline, "queued past deadline")
		})
		return
	}
	switch t.op {
	case kvwire.OpPut:
		s.replyStatus(t, s.set.Store(t.key, t.value))
	case kvwire.OpDel:
		s.replyStatus(t, s.set.Delete(t.key))
	case kvwire.OpGet:
		// Append into the task's reused scratch: a DRAM-resident get
		// then completes without allocating on the device or here.
		v, err := s.set.RetrieveAppend(t.vbuf[:0], t.key)
		if err != nil {
			s.replyStatus(t, err)
			return
		}
		t.vbuf = v
		t.c.reply(func(b []byte) []byte { return kvwire.AppendValueResponse(b, t.id, v) })
	case kvwire.OpExist:
		ok, err := s.set.Exist(t.key)
		if err != nil {
			s.replyStatus(t, err)
			return
		}
		t.c.reply(func(b []byte) []byte { return kvwire.AppendBoolResponse(b, t.id, ok) })
	case kvwire.OpBatch:
		s.executeBatch(t)
	case kvwire.OpScan:
		s.executeScan(t)
	case kvwire.OpStats:
		st := s.collectStats()
		t.c.reply(func(b []byte) []byte { return kvwire.AppendStatsResponse(b, t.id, &st) })
	case kvwire.OpSnapshot:
		s.executeSnapshot(t)
	case kvwire.OpSnapGet:
		s.executeSnapGet(t)
	case kvwire.OpSnapRelease:
		s.executeSnapRelease(t)
	case kvwire.OpBackup:
		s.executeBackup(t)
	default:
		t.c.reply(func(b []byte) []byte {
			return kvwire.AppendError(b, t.id, kvwire.StatusBadRequest, "unknown opcode")
		})
	}
}

func (s *Server) replyStatus(t *task, err error) {
	st := statusOf(err)
	if st == kvwire.StatusOK {
		t.c.reply(func(b []byte) []byte { return kvwire.AppendOK(b, t.id) })
		return
	}
	t.c.reply(func(b []byte) []byte { return kvwire.AppendError(b, t.id, st, "") })
}

func (s *Server) executeBatch(t *task) {
	ops := make([]shard.Op, len(t.ops))
	for i, bo := range t.ops {
		switch bo.Op {
		case kvwire.OpPut:
			ops[i] = shard.Op{Kind: workload.OpStore, Key: bo.Key, Value: bo.Value}
		case kvwire.OpGet:
			ops[i] = shard.Op{Kind: workload.OpRetrieve, Key: bo.Key}
		case kvwire.OpDel:
			ops[i] = shard.Op{Kind: workload.OpDelete, Key: bo.Key}
		}
	}
	res := s.set.Apply(ops, 0)
	items := make([]kvwire.BatchItem, len(ops))
	for i := range ops {
		items[i] = kvwire.BatchItem{Status: statusOf(res.Errs[i]), Value: res.Values[i]}
	}
	t.c.reply(func(b []byte) []byte { return kvwire.AppendBatchResponse(b, t.id, items) })
}

// executeScan fans a prefix iteration out to every shard (Set.Iterate
// merges the sorted per-shard streams) and returns up to t.limit
// entries. Requires the server's set to run iterator-mode signatures
// (-prefixlen) and a prefix at least that long; otherwise the scan is a
// BAD_REQUEST, not an internal error.
func (s *Server) executeScan(t *task) {
	entries, err := s.set.Iterate(t.key)
	if err != nil {
		if errors.Is(err, device.ErrNoIterator) || errors.Is(err, device.ErrPrefixTooShort) {
			t.c.reply(func(b []byte) []byte {
				return kvwire.AppendError(b, t.id, kvwire.StatusBadRequest, err.Error())
			})
			return
		}
		s.replyStatus(t, err)
		return
	}
	limit := t.limit
	if limit == 0 || limit > kvwire.MaxScanResults {
		limit = kvwire.MaxScanResults
	}
	if uint64(len(entries)) > limit {
		entries = entries[:limit]
	}
	out := make([]kvwire.ScanEntry, len(entries))
	for i, e := range entries {
		out[i] = kvwire.ScanEntry{Key: e.Key, Value: e.Value}
	}
	t.c.reply(func(b []byte) []byte { return kvwire.AppendScanResponse(b, t.id, out) })
}

func (s *Server) collectStats() kvwire.Stats {
	agg := s.set.Stats()
	return kvwire.Stats{
		Shards:          uint64(s.set.N()),
		Stores:          uint64(agg.Dev.Stores),
		Retrieves:       uint64(agg.Dev.Retrieves),
		Deletes:         uint64(agg.Dev.Deletes),
		Exists:          uint64(agg.Dev.Exists),
		BytesWritten:    uint64(agg.Dev.BytesWritten),
		BytesRead:       uint64(agg.Dev.BytesRead),
		IndexRecords:    uint64(agg.Index.Records),
		Resizes:         uint64(agg.Index.Resizes),
		CollisionAborts: uint64(agg.Dev.CollisionAborts),
		FlashReads:      uint64(agg.Flash.Reads),
		FlashPrograms:   uint64(agg.Flash.Programs),
		FlashErases:     uint64(agg.Flash.Erases),
		GCRuns:          uint64(agg.Dev.GCRuns),
		Checkpoints:     uint64(agg.Dev.Checkpoints),
		StoreP50ns:      uint64(agg.StoreLat.Percentile(50)),
		StoreP99ns:      uint64(agg.StoreLat.Percentile(99)),
		RetrieveP50ns:   uint64(agg.RetrieveLat.Percentile(50)),
		RetrieveP99ns:   uint64(agg.RetrieveLat.Percentile(99)),
		WALRecords:      uint64(agg.WAL.Records),
		WALBytes:        uint64(agg.WAL.Bytes),
		WALGroups:       uint64(agg.WAL.Groups),
		WALFsyncs:       uint64(agg.WAL.Fsyncs),
		WALGroupP50:     uint64(agg.WAL.GroupSize.Percentile(50)),
		WALGroupMax:     uint64(agg.WAL.GroupSize.Max()),

		OptimisticReads:   uint64(agg.OptimisticReads),
		OptimisticRetries: uint64(agg.OptimisticRetries),
		FallbackExclusive: uint64(agg.FallbackExclusive),
		EpochPins:         uint64(agg.EpochPins),

		CacheHits:        uint64(agg.Index.Cache.Hits),
		CacheMisses:      uint64(agg.Index.Cache.Misses),
		AdmissionRejects: uint64(agg.Index.Cache.AdmissionRejects),
		ValueCacheHits:   uint64(agg.Dev.ValueCacheHits),
		ValueCacheMisses: uint64(agg.Dev.ValueCacheMisses),
		PrefetchHits:     uint64(agg.Dev.PrefetchHits),
	}
}

func statusOf(err error) kvwire.Status {
	switch {
	case err == nil:
		return kvwire.StatusOK
	case errors.Is(err, device.ErrNotFound):
		return kvwire.StatusNotFound
	case errors.Is(err, index.ErrCollision):
		return kvwire.StatusCollision
	case errors.Is(err, device.ErrKeyTooLarge):
		return kvwire.StatusKeyTooLarge
	case errors.Is(err, device.ErrValueTooLarge):
		return kvwire.StatusValueTooLarge
	case errors.Is(err, device.ErrDeviceFull):
		return kvwire.StatusDeviceFull
	case errors.Is(err, device.ErrClosed):
		return kvwire.StatusClosed
	case errors.Is(err, device.ErrNoSnapshot):
		return kvwire.StatusBadRequest
	case errors.Is(err, device.ErrSnapshotInvalid),
		errors.Is(err, device.ErrSnapshotReleased):
		return kvwire.StatusUnknownSnapshot
	case errors.Is(err, device.ErrSnapshotBusy):
		return kvwire.StatusBusy
	default:
		return kvwire.StatusInternal
	}
}

// admit routes a parsed request into the worker pool, answering BUSY
// itself when a limit is hit. It owns the inflight/task accounting.
func (s *Server) admit(c *conn, req *kvwire.Request) {
	if s.inflight.Load() >= int64(s.opts.MaxInflight) {
		c.replyBusy(req.ID, "inflight limit")
		return
	}

	t := taskPool.Get().(*task)
	t.c = c
	t.op = req.Op
	t.id = req.ID
	t.limit = req.Limit
	t.snap = req.Snap
	t.enqueued = time.Now()
	t.copyPayload(req)

	var q chan *task
	switch req.Op {
	case kvwire.OpPut, kvwire.OpDel:
		q = s.queues[s.set.RouteKey(t.key)]
	case kvwire.OpGet, kvwire.OpExist:
		q = s.rqueues[s.set.RouteKey(t.key)]
	default:
		q = s.xqueue
	}

	s.inflight.Add(1)
	s.tasks.Add(1)
	c.tasks.Add(1)
	select {
	case q <- t:
	default:
		// Queue full: the shard (or executor pool) is the bottleneck.
		// Refuse instead of buffering unboundedly.
		s.finish(c)
		s.putTask(t)
		c.replyBusy(req.ID, "queue full")
	}
}

// finish reverses admit's accounting; conn.reply calls it after the
// response frame is enqueued.
func (s *Server) finish(c *conn) {
	s.inflight.Add(-1)
	s.tasks.Done()
	c.tasks.Done()
}

// copyPayload copies the request's key/value/batch bytes into the
// task's reused buffer, since the frame buffer they alias is recycled.
func (t *task) copyPayload(req *kvwire.Request) {
	need := len(req.Key) + len(req.Value)
	for _, bo := range req.Ops {
		need += len(bo.Key) + len(bo.Value)
	}
	if cap(t.buf) < need {
		t.buf = make([]byte, 0, need)
	}
	buf := t.buf[:0]
	off := func(b []byte) (lo, hi int) {
		lo = len(buf)
		buf = append(buf, b...)
		return lo, len(buf)
	}
	kl, kh := off(req.Key)
	vl, vh := off(req.Value)
	type span struct{ kl, kh, vl, vh int }
	spans := make([]span, len(req.Ops))
	for i, bo := range req.Ops {
		spans[i].kl, spans[i].kh = off(bo.Key)
		spans[i].vl, spans[i].vh = off(bo.Value)
	}
	t.buf = buf
	t.key = buf[kl:kh:kh]
	t.value = buf[vl:vh:vh]
	t.ops = t.ops[:0]
	for i, bo := range req.Ops {
		t.ops = append(t.ops, kvwire.BatchOp{
			Op:    bo.Op,
			Key:   buf[spans[i].kl:spans[i].kh:spans[i].kh],
			Value: buf[spans[i].vl:spans[i].vh:spans[i].vh],
		})
	}
}
