// Package server exposes a sharded emulated KVSSD (shard.Set) over TCP
// using the kvwire protocol. Each connection runs one reader and one
// writer goroutine, and the reader sends each request down the shortest
// path that keeps its ordering and backpressure contract:
//
//   - GET and EXIST run on the reader through the set's lock-free tier
//     (Set.TryRetrieveAppend, Set.TryExist), replying straight to the
//     connection's outbound queue. Only a read that tier refuses (a
//     page-in that installs, lazy migration, a value in an open page
//     buffer) queues to its shard's worker.
//   - With a WAL attached, PUT and DEL go straight to the shard's group
//     committer (Set.TrySubmit), which replies once their group is
//     applied and logged. Without one they queue to the shard's worker,
//     which executes in submission order.
//   - BATCH, SCAN, STATS and snapshot requests span shards and run on a
//     small executor pool.
//
// Reads are not ordered against writes in flight on the same shard: a
// client needing read-your-write order awaits the write's response.
// Responses complete out of order, matched by request ID. When the
// inflight limit or a queue is full the server answers BUSY at once,
// and an optional deadline answers DEADLINE for requests that waited in
// a queue too long; neither executes the request. Shutdown drains:
// stop accepting, finish every admitted request, flush every response,
// then checkpoint and close the device.
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
	"repro/internal/wal"
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
	// RequestTimeout, when positive, drops requests that waited in a
	// worker's or committer's queue longer than this with DEADLINE
	// instead of executing them.
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

	queues []chan *task // one per shard: refused reads, WAL-less mutations
	xqueue chan *task   // cross-shard ops: BATCH, SCAN, STATS, snapshots

	inflight atomic.Int64
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
	for i := range s.queues {
		s.queues[i] = make(chan *task, s.opts.QueueDepth)
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
	s.conns.Wait() // readers and writers done ⇒ every response flushed
	for _, q := range s.queues {
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
	c         *conn
	op        kvwire.Op
	id        uint64
	key       []byte
	value     []byte
	ops       []kvwire.BatchOp
	buf       []byte
	limit     uint64      // scan result cap
	snap      uint64      // snapshot ID for SNAPGET/SNAPRELEASE/BACKUP
	deadline  time.Time   // answer DEADLINE once past this (zero: none)
	committed func(error) // t.answerCommit, bound once per pooled task
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// release returns t to the pool and reverses admit's accounting, once
// t's response is enqueued (or t was refused).
func (s *Server) release(t *task) {
	c := t.c
	t.c, t.key, t.value, t.ops = nil, nil, nil, t.ops[:0]
	taskPool.Put(t)
	s.inflight.Add(-1)
	c.tasks.Done()
}

// worker executes queued tasks until its queue closes.
func (s *Server) worker(q chan *task) {
	defer s.workers.Done()
	for t := range q {
		s.execute(t)
	}
}

func (s *Server) execute(t *task) {
	defer s.release(t)
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		t.c.replyStatus(t.id, shard.ErrDeadline)
		return
	}
	switch t.op {
	case kvwire.OpPut:
		t.c.replyStatus(t.id, s.set.Store(t.key, t.value))
	case kvwire.OpDel:
		t.c.replyStatus(t.id, s.set.Delete(t.key))
	case kvwire.OpGet:
		v, err := s.set.Retrieve(t.key)
		t.c.replyRead(t.op, t.id, v, false, err)
	case kvwire.OpExist:
		ok, err := s.set.Exist(t.key)
		t.c.replyRead(t.op, t.id, nil, ok, err)
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

// answerCommit is the shard committer's callback for a mutation admit
// handed it.
func (t *task) answerCommit(err error) {
	t.c.replyStatus(t.id, err)
	t.c.srv.release(t)
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
		t.c.replyStatus(t.id, err)
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
	case errors.Is(err, shard.ErrDeadline):
		return kvwire.StatusDeadline
	default:
		return kvwire.StatusInternal
	}
}

// admit executes or routes one parsed request, answering BUSY itself
// when a limit is hit. It owns the inflight/task accounting of
// everything it does not answer in place.
func (s *Server) admit(c *conn, req *kvwire.Request) {
	switch req.Op {
	case kvwire.OpGet:
		// Into the connection's reused scratch: a DRAM-resident get
		// completes without allocating on the device or here.
		v, err := s.set.TryRetrieveAppend(c.vbuf[:0], req.Key)
		if !errors.Is(err, index.ErrNeedExclusive) {
			c.vbuf = v
			c.replyRead(req.Op, req.ID, v, false, err)
			return
		}
	case kvwire.OpExist:
		ok, err := s.set.TryExist(req.Key)
		if !errors.Is(err, index.ErrNeedExclusive) {
			c.replyRead(req.Op, req.ID, nil, ok, err)
			return
		}
	}
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
	t.deadline = time.Time{}
	if d := s.opts.RequestTimeout; d > 0 {
		t.deadline = time.Now().Add(d)
	}
	t.copyPayload(req)

	s.inflight.Add(1)
	c.tasks.Add(1)
	var q chan *task
	switch req.Op {
	case kvwire.OpPut, kvwire.OpDel:
		if !s.set.WALAttached() {
			q = s.queues[s.set.RouteKey(t.key)]
			break
		}
		op := wal.OpPut
		if req.Op == kvwire.OpDel {
			op = wal.OpDelete
		}
		if t.committed == nil {
			t.committed = t.answerCommit
		}
		if s.set.TrySubmit(op, t.key, t.value, t.deadline, t.committed) {
			return
		}
	case kvwire.OpGet, kvwire.OpExist:
		q = s.queues[s.set.RouteKey(t.key)]
	default:
		q = s.xqueue
	}
	if q != nil {
		select {
		case q <- t:
			return
		default:
		}
	}
	// Queue full: the shard (or executor pool) is the bottleneck. Refuse
	// instead of buffering unboundedly.
	s.release(t)
	c.replyBusy(req.ID, "queue full")
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
	t.buf = t.buf[:0]
	t.key, t.value = t.own(req.Key), t.own(req.Value)
	t.ops = t.ops[:0]
	for _, bo := range req.Ops {
		t.ops = append(t.ops, kvwire.BatchOp{Op: bo.Op, Key: t.own(bo.Key), Value: t.own(bo.Value)})
	}
}

// own appends b to t.buf and returns the copy. copyPayload sized t.buf
// for the whole payload, so the append never moves earlier copies.
func (t *task) own(b []byte) []byte {
	lo := len(t.buf)
	t.buf = append(t.buf, b...)
	return t.buf[lo:len(t.buf):len(t.buf)]
}
