package server

import (
	"bufio"
	"net"
	"sync"

	"repro/internal/kvwire"
)

// respPool recycles encoded response frames between the goroutines that
// build them (readers, workers, committers) and connection writers.
var respPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// conn is one accepted connection: a reader goroutine that parses
// requests, answers lock-free reads in place and admits the rest, and a
// writer goroutine that flushes out-of-order responses. The writer only
// exits once every admitted request has enqueued its response, so
// replies never block on a departed peer's goroutine being gone — at
// worst they are discarded after a write error.
type conn struct {
	srv   *Server
	nc    net.Conn
	out   chan *[]byte
	tasks sync.WaitGroup // requests admitted on this conn, not yet replied
	vbuf  []byte         // the reader's value scratch for in-place GETs
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{srv: s, nc: nc, out: make(chan *[]byte, 1024)}
}

func (c *conn) readLoop() {
	defer c.srv.conns.Done()
	defer func() {
		c.srv.mu.Lock()
		delete(c.srv.open, c)
		c.srv.mu.Unlock()
		// A departed client cannot release its snapshots; do it for it so
		// dangling snapshots never pin flash blocks against GC.
		c.srv.releaseConnSnapshots(c)
		// Close the outbound side only after the last admitted request
		// has enqueued its response; the writer then flushes and exits.
		go func() {
			c.tasks.Wait()
			close(c.out)
		}()
	}()

	br := bufio.NewReaderSize(c.nc, 64<<10)
	if err := kvwire.ReadPreamble(br); err != nil {
		c.srv.opts.Logf("server: %s: preamble: %v", c.nc.RemoteAddr(), err)
		return
	}
	fr := kvwire.NewFrameReader(br)
	var req kvwire.Request
	for {
		body, err := fr.Next()
		if err != nil {
			// EOF, peer reset, shutdown's read deadline, or an
			// unframeable stream — all end the connection.
			return
		}
		if err := req.Parse(body); err != nil {
			// The stream still frames, but the body is garbage; tell
			// the peer (best effort, the ID may be unparsed) and drop
			// the connection rather than guess at recovery.
			c.reply(func(b []byte) []byte {
				return kvwire.AppendError(b, req.ID, kvwire.StatusBadRequest, err.Error())
			})
			return
		}
		c.srv.admit(c, &req)
	}
}

func (c *conn) writeLoop() {
	defer c.srv.conns.Done()
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	failed := false
	for pb := range c.out {
		if !failed {
			if _, err := bw.Write(*pb); err != nil {
				failed = true
				c.nc.Close() // unblock the reader too
			} else if len(c.out) == 0 {
				// Flush on idle: batches consecutive responses into one
				// syscall under load without delaying a lone response.
				if err := bw.Flush(); err != nil {
					failed = true
					c.nc.Close()
				}
			}
		}
		respPool.Put(pb)
	}
	if !failed {
		bw.Flush()
	}
}

// reply builds a response frame in a pooled buffer and enqueues it for
// the writer. build must append exactly one frame.
func (c *conn) reply(build func([]byte) []byte) {
	pb := respPool.Get().(*[]byte)
	*pb = build((*pb)[:0])
	c.out <- pb
}

// replyStatus answers a request whose only result is err.
func (c *conn) replyStatus(id uint64, err error) {
	st := statusOf(err)
	if st == kvwire.StatusOK {
		c.reply(func(b []byte) []byte { return kvwire.AppendOK(b, id) })
		return
	}
	c.reply(func(b []byte) []byte { return kvwire.AppendError(b, id, st, "") })
}

// replyRead answers a GET with v or an EXIST with ok, or either with
// err's status.
func (c *conn) replyRead(op kvwire.Op, id uint64, v []byte, ok bool, err error) {
	switch {
	case err != nil:
		c.replyStatus(id, err)
	case op == kvwire.OpGet:
		c.reply(func(b []byte) []byte { return kvwire.AppendValueResponse(b, id, v) })
	default:
		c.reply(func(b []byte) []byte { return kvwire.AppendBoolResponse(b, id, ok) })
	}
}

func (c *conn) replyBusy(id uint64, msg string) {
	c.reply(func(b []byte) []byte {
		return kvwire.AppendError(b, id, kvwire.StatusBusy, msg)
	})
}
