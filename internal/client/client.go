// Package client is the Go client for the kvwire network protocol: a
// connection pool over which requests are pipelined — many outstanding
// requests per connection, matched to their out-of-order responses by
// request ID — with batch fan-in and bounded retry-with-backoff for
// BUSY rejections and transient dial failures.
//
// Retries are only attempted when the request is guaranteed not to
// have executed: a BUSY/DEADLINE status (the server's contract), a
// failed dial, or an enqueue that never reached the socket. A
// connection that fails mid-flight fails its outstanding calls instead
// of blindly resubmitting them, since a delete or store may already
// have been applied.
//
// All methods are safe for concurrent use; concurrency is the point —
// each in-flight caller occupies one pipeline slot, and the pool
// spreads callers across connections round-robin.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvwire"
)

// Options configures a Client.
type Options struct {
	// Addr is the server's TCP address (required).
	Addr string
	// Conns is the connection pool size (default 2).
	Conns int
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
	// MaxRetries bounds resubmissions after BUSY/dial failures
	// (default 8; 0 disables retries).
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries (defaults 2ms and 250ms), with ±50% jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Conns <= 0 {
		out.Conns = 2
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = 8
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 2 * time.Millisecond
	}
	if out.RetryMax <= 0 {
		out.RetryMax = 250 * time.Millisecond
	}
	return out
}

// ErrClientClosed is returned by calls made after Close.
var ErrClientClosed = errors.New("client: closed")

// Client is a pooled, pipelined kvwire client. Create with Dial.
type Client struct {
	opts Options
	rr   atomic.Uint64

	mu     sync.Mutex
	conns  []*conn
	closed bool
}

// Dial creates a client and eagerly dials the first pooled connection
// so configuration errors surface immediately; the rest of the pool is
// dialed on demand.
func Dial(opts Options) (*Client, error) {
	c := &Client{opts: opts.withDefaults()}
	c.conns = make([]*conn, c.opts.Conns)
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cn
	return c, nil
}

// Close shuts down every pooled connection, failing outstanding calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*conn(nil), c.conns...)
	c.mu.Unlock()
	for _, cn := range conns {
		if cn != nil {
			cn.fail(ErrClientClosed)
		}
	}
	return nil
}

func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := newClientConn(nc)
	if _, err := nc.Write(kvwire.AppendPreamble(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	go cn.readLoop()
	go cn.writeLoop()
	return cn, nil
}

// pick returns a live pooled connection, dialing a replacement for a
// dead slot. Dial errors are reported to the caller for retry.
func (c *Client) pick() (*conn, error) {
	slot := int(c.rr.Add(1)) % len(c.conns)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if cn := c.conns[slot]; cn != nil && !cn.isFailed() {
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()

	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cn.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if old := c.conns[slot]; old != nil && !old.isFailed() {
		// Another caller refreshed the slot first; use theirs.
		c.mu.Unlock()
		cn.fail(ErrClientClosed)
		return old, nil
	}
	c.conns[slot] = cn
	c.mu.Unlock()
	return cn, nil
}

func (c *Client) backoff(attempt int) {
	d := c.opts.RetryBase << uint(attempt)
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	// ±50% jitter decorrelates clients hammering a busy server.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	time.Sleep(d)
}

// do runs one request with the retry policy, returning the completed
// call on any non-retryable outcome.
func (c *Client) do(op kvwire.Op, enc func(id uint64, b []byte) []byte) (*call, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.backoff(attempt - 1)
		}
		cn, err := c.pick()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, err
			}
			lastErr = err // transient dial failure: retry
			continue
		}
		cl, sent, err := cn.roundtrip(op, enc)
		if err != nil {
			if !sent {
				lastErr = err // never hit the socket: safe to retry
				continue
			}
			return nil, err // mid-flight failure: may have executed
		}
		if cl.status.Retryable() {
			lastErr = cl.status.Err()
			continue
		}
		return cl, nil
	}
	return nil, fmt.Errorf("client: giving up after %d retries: %w", c.opts.MaxRetries, lastErr)
}

// statusErr maps a completed call to its error (nil for OK), attaching
// any server-provided detail.
func statusErr(cl *call) error {
	err := cl.status.Err()
	if err != nil && cl.msg != "" {
		return fmt.Errorf("%w: %s", err, cl.msg)
	}
	return err
}

// Put stores a key-value pair.
func (c *Client) Put(key, value []byte) error {
	cl, err := c.do(kvwire.OpPut, func(id uint64, b []byte) []byte {
		return kvwire.AppendPut(b, id, key, value)
	})
	if err != nil {
		return err
	}
	return statusErr(cl)
}

// Get retrieves the value stored under key; kvwire.ErrNotFound if
// absent.
func (c *Client) Get(key []byte) ([]byte, error) {
	cl, err := c.do(kvwire.OpGet, func(id uint64, b []byte) []byte {
		return kvwire.AppendGet(b, id, key)
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(cl); err != nil {
		return nil, err
	}
	return cl.value, nil
}

// Del deletes key; kvwire.ErrNotFound if absent.
func (c *Client) Del(key []byte) error {
	cl, err := c.do(kvwire.OpDel, func(id uint64, b []byte) []byte {
		return kvwire.AppendDel(b, id, key)
	})
	if err != nil {
		return err
	}
	return statusErr(cl)
}

// Exist reports whether key is stored.
func (c *Client) Exist(key []byte) (bool, error) {
	cl, err := c.do(kvwire.OpExist, func(id uint64, b []byte) []byte {
		return kvwire.AppendExist(b, id, key)
	})
	if err != nil {
		return false, err
	}
	if err := statusErr(cl); err != nil {
		return false, err
	}
	return cl.ok, nil
}

// Scan enumerates up to limit keys sharing prefix, sorted, with their
// values. limit 0 asks for the server maximum. The server must run
// iterator-mode signatures (-prefixlen) and prefix must be at least that
// long; otherwise the scan fails with kvwire.ErrBadRequest.
func (c *Client) Scan(prefix []byte, limit int) ([]kvwire.ScanEntry, error) {
	cl, err := c.do(kvwire.OpScan, func(id uint64, b []byte) []byte {
		return kvwire.AppendScan(b, id, prefix, uint64(limit))
	})
	if err != nil {
		return nil, err
	}
	if err := statusErr(cl); err != nil {
		return nil, err
	}
	return cl.entries, nil
}

// Stats fetches the server's device counters.
func (c *Client) Stats() (kvwire.Stats, error) {
	cl, err := c.do(kvwire.OpStats, func(id uint64, b []byte) []byte {
		return kvwire.AppendStats(b, id)
	})
	if err != nil {
		return kvwire.Stats{}, err
	}
	if err := statusErr(cl); err != nil {
		return kvwire.Stats{}, err
	}
	return cl.stats, nil
}
