package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	rhik "repro"
	"repro/internal/client"
	"repro/internal/kvwire"
	"repro/internal/server"
	"repro/internal/shard"
)

// logBuf captures server log lines race-safely.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

// startServer opens a sharded device, serves it on a loopback port, and
// tears everything down at test end.
func startServer(t *testing.T, shards int, opts server.Options) (srv *server.Server, addr string, logs *logBuf, served chan error) {
	t.Helper()
	return serveSet(t, openSet(t, rhik.Options{Shards: shards}), opts)
}

// openSet opens a 256 MiB set configured by so.
func openSet(t *testing.T, so rhik.Options) *shard.Set {
	t.Helper()
	so.Capacity = 256 << 20
	set, err := rhik.OpenSet(so)
	if err != nil {
		t.Fatalf("OpenSet: %v", err)
	}
	return set
}

// withWAL is the set configuration of a server whose mutations go
// through the shard committers; fsync=none keeps the disk out of the
// test's timing.
func withWAL(t *testing.T, shards int) rhik.Options {
	return rhik.Options{Shards: shards, WAL: rhik.WALOptions{Dir: t.TempDir(), Fsync: "none"}}
}

// setCase is a named set configuration for a table-driven test.
type setCase struct {
	name string
	so   rhik.Options
}

// mutationPaths are the two single-shard sets whose servers execute
// PUT/DEL differently: queued to the shard worker, or handed to the WAL
// committer.
func mutationPaths(t *testing.T) []setCase {
	return []setCase{{"worker", rhik.Options{Shards: 1}}, {"wal", withWAL(t, 1)}}
}

// serveSet serves set on a loopback port and shuts it down at test end.
func serveSet(t *testing.T, set *shard.Set, opts server.Options) (srv *server.Server, addr string, logs *logBuf, served chan error) {
	t.Helper()
	logs = &logBuf{}
	opts.Logf = logs.logf
	srv = server.New(set, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served = make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown() })
	return srv, ln.Addr().String(), logs, served
}

// TestLoopbackMixedOps drives a pipelined client hard against a sharded
// loopback server: concurrent goroutines, every op type, verified
// against per-goroutine oracles. Run under -race this is the
// concurrency soak for the whole serving stack.
func TestLoopbackMixedOps(t *testing.T) {
	_, addr, _, _ := startServer(t, 4, server.Options{})
	c, err := client.Dial(client.Options{Addr: addr, Conns: 3})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			oracle := map[string]string{}
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf("g%d: "+format, append([]any{g}, args...)...):
				default:
				}
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("g%d:key%04d", g, i)) }
			for i := 0; i < opsPer; i++ {
				k := key(rng.Intn(64))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // put
					v := []byte(fmt.Sprintf("v%d-%d", g, i))
					if err := c.Put(k, v); err != nil {
						fail("put: %v", err)
						return
					}
					oracle[string(k)] = string(v)
				case 4, 5, 6: // get
					v, err := c.Get(k)
					want, ok := oracle[string(k)]
					switch {
					case !ok && !errors.Is(err, kvwire.ErrNotFound):
						fail("get absent %q: %v %q", k, err, v)
						return
					case ok && (err != nil || string(v) != want):
						fail("get %q: got %q/%v want %q", k, v, err, want)
						return
					}
				case 7: // exist
					got, err := c.Exist(k)
					if err != nil {
						fail("exist: %v", err)
						return
					}
					if _, ok := oracle[string(k)]; ok != got {
						fail("exist %q: got %v want %v", k, got, ok)
						return
					}
				case 8: // del
					err := c.Del(k)
					_, ok := oracle[string(k)]
					switch {
					case ok && err != nil:
						fail("del %q: %v", k, err)
						return
					case !ok && !errors.Is(err, kvwire.ErrNotFound):
						fail("del absent %q: %v", k, err)
						return
					}
					delete(oracle, string(k))
				case 9: // batch: a put, a get, and a del in one frame
					bk1, bk2, bk3 := key(rng.Intn(64)), key(rng.Intn(64)), key(rng.Intn(64))
					bv := []byte(fmt.Sprintf("b%d-%d", g, i))
					var b client.Batch
					b.Put(bk1, bv)
					b.Get(bk2)
					b.Del(bk3)
					res, err := c.Do(&b)
					if err != nil {
						fail("batch: %v", err)
						return
					}
					// Same-key ops within a batch land on the same shard
					// and execute in submission order, so applying the
					// oracle updates in that order matches the device.
					oracle[string(bk1)] = string(bv)
					// bk2 may equal bk1/bk3; the server executes batch
					// ops concurrently across shards, so only same-shard
					// ordering is defined. Verify the get strictly only
					// when the three keys are distinct.
					if string(bk2) != string(bk1) && string(bk2) != string(bk3) {
						want, ok := oracle[string(bk2)]
						switch {
						case !ok && !errors.Is(res.Errs[1], kvwire.ErrNotFound):
							fail("batch get absent %q: %v", bk2, res.Errs[1])
							return
						case ok && (res.Errs[1] != nil || string(res.Values[1]) != want):
							fail("batch get %q: got %q/%v want %q", bk2, res.Values[1], res.Errs[1], want)
							return
						}
					}
					delete(oracle, string(bk3))
				}
			}
			// Final sweep: every oracle entry must be retrievable.
			for k, want := range oracle {
				v, err := c.Get([]byte(k))
				if err != nil || string(v) != want {
					fail("final get %q: %q/%v want %q", k, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shards != 4 || st.Stores == 0 || st.Retrieves == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestScanRoundTrip serves an iterator-mode set and checks SCAN end to
// end: prefix filtering, sort order, limit clamping, and the
// BAD_REQUEST mapping when the prefix is shorter than the signature
// prefix or the server lacks iterator signatures.
func TestScanRoundTrip(t *testing.T) {
	_, addr, _, _ := serveSet(t, openSet(t, rhik.Options{Shards: 4, IteratorPrefixLen: 6}), server.Options{})
	c, err := client.Dial(client.Options{Addr: addr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("scanme%04d", i))
		if err := c.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	if err := c.Put([]byte("other-key"), []byte("x")); err != nil {
		t.Fatalf("put other: %v", err)
	}

	entries, err := c.Scan([]byte("scanme"), 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(entries) != 20 {
		t.Fatalf("scan returned %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		wantK := fmt.Sprintf("scanme%04d", i)
		wantV := fmt.Sprintf("val-%d", i)
		if string(e.Key) != wantK || string(e.Value) != wantV {
			t.Fatalf("entry %d: %q=%q, want %q=%q", i, e.Key, e.Value, wantK, wantV)
		}
	}

	limited, err := c.Scan([]byte("scanme"), 7)
	if err != nil {
		t.Fatalf("limited scan: %v", err)
	}
	if len(limited) != 7 || string(limited[6].Key) != "scanme0006" {
		t.Fatalf("limited scan: got %d entries", len(limited))
	}

	// A prefix shorter than -prefixlen names no signature group: BAD_REQUEST
	// with the reason, not a partial (or empty) result. A longer one narrows.
	for _, short := range []string{"", "scanm"} {
		if got, err := c.Scan([]byte(short), 0); !errors.Is(err, kvwire.ErrBadRequest) ||
			!strings.Contains(err.Error(), "shorter than") || got != nil {
			t.Fatalf("scan %q: %d entries, %v; want ErrBadRequest naming the short prefix", short, len(got), err)
		}
	}
	if got, err := c.Scan([]byte("scanme001"), 0); err != nil || len(got) != 10 {
		t.Fatalf("longer-prefix scan: %d entries, %v; want 10", len(got), err)
	}

	// A server without iterator-mode signatures must reject SCAN with
	// BAD_REQUEST, not hang or drop the connection.
	_, addr2, _, _ := startServer(t, 1, server.Options{})
	c2, err := client.Dial(client.Options{Addr: addr2})
	if err != nil {
		t.Fatalf("dial non-iterator: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Scan([]byte("scanme"), 0); !errors.Is(err, kvwire.ErrBadRequest) {
		t.Fatalf("scan on non-iterator server: %v, want ErrBadRequest", err)
	}
}

// TestValueSizesAndEdgeCases exercises empty values, large values, and
// device-level errors crossing the wire.
func TestValueSizesAndEdgeCases(t *testing.T) {
	_, addr, _, _ := startServer(t, 1, server.Options{})
	c, err := client.Dial(client.Options{Addr: addr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.Put([]byte("empty"), nil); err != nil {
		t.Fatalf("put empty: %v", err)
	}
	v, err := c.Get([]byte("empty"))
	if err != nil || len(v) != 0 {
		t.Fatalf("get empty: %q %v", v, err)
	}

	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := c.Put([]byte("big"), big); err != nil {
		t.Fatalf("put 1MiB: %v", err)
	}
	v, err = c.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("get 1MiB: len=%d err=%v", len(v), err)
	}

	if _, err := c.Get([]byte("never-stored")); !errors.Is(err, kvwire.ErrNotFound) {
		t.Fatalf("absent get: %v", err)
	}
	// An empty key is rejected by the device, not the transport.
	if err := c.Put(nil, []byte("v")); !errors.Is(err, kvwire.ErrKeyTooLarge) {
		t.Fatalf("empty key: %v", err)
	}
}

// TestBusyBackpressure floods a tiny-inflight server with pipelined
// frames over a raw socket and requires BUSY rejections, then verifies
// a retrying client still completes every op — with mutations queued to
// the shard worker, and with them handed to the WAL committer.
func TestBusyBackpressure(t *testing.T) {
	for _, tc := range mutationPaths(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, addr, _, _ := serveSet(t, openSet(t, tc.so), server.Options{MaxInflight: 4})
			testBusyBackpressure(t, addr)
		})
	}
}

func testBusyBackpressure(t *testing.T, addr string) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer nc.Close()
	const n = 4000
	buf := kvwire.AppendPreamble(nil)
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < n; i++ {
		buf = kvwire.AppendPut(buf, uint64(i+1), []byte(fmt.Sprintf("busy%05d", i)), val)
	}
	go func() { nc.Write(buf) }()

	fr := kvwire.NewFrameReader(nc)
	var resp kvwire.Response
	busy, ok := 0, 0
	for i := 0; i < n; i++ {
		body, err := fr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if err := resp.Parse(body); err != nil {
			t.Fatalf("response %d parse: %v", i, err)
		}
		switch resp.Status {
		case kvwire.StatusOK:
			ok++
		case kvwire.StatusBusy:
			busy++
		default:
			t.Fatalf("response %d: unexpected status %v", i, resp.Status)
		}
	}
	if busy == 0 {
		t.Fatalf("no BUSY under a %d-frame flood with MaxInflight=4 (%d ok)", n, ok)
	}
	if ok == 0 {
		t.Fatal("every frame rejected; admission never let work through")
	}
	t.Logf("flood: %d ok, %d busy", ok, busy)

	// A retrying client grinds through despite the tiny inflight cap.
	c, err := client.Dial(client.Options{Addr: addr, MaxRetries: 50, RetryBase: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("retry%d-%d", g, i))
				if err := c.Put(k, k); err != nil {
					select {
					case errCh <- fmt.Errorf("put %s: %w", k, err):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRequestDeadline verifies queued-past-deadline mutations are
// answered DEADLINE and never applied, whether they waited for the
// shard worker or for the WAL committer.
func TestRequestDeadline(t *testing.T) {
	for _, tc := range mutationPaths(t) {
		t.Run(tc.name, func(t *testing.T) {
			set := openSet(t, tc.so)
			_, addr, _, _ := serveSet(t, set, server.Options{RequestTimeout: time.Nanosecond})
			c, err := client.Dial(client.Options{Addr: addr, MaxRetries: -1})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			// Any nonzero queue wait exceeds 1ns, so the request must be shed.
			if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, kvwire.ErrDeadline) {
				t.Fatalf("put: want ErrDeadline, got %v", err)
			}
			if err := c.Del([]byte("k")); !errors.Is(err, kvwire.ErrDeadline) {
				t.Fatalf("del: want ErrDeadline, got %v", err)
			}
			if st := set.Stats(); st.Dev.Stores != 0 || st.Dev.Deletes != 0 || st.WAL.Records != 0 {
				t.Fatalf("shed mutations ran: %d stores, %d deletes, %d WAL records",
					st.Dev.Stores, st.Dev.Deletes, st.WAL.Records)
			}
		})
	}
}

// TestReadYourAckedWriteAcrossConns: with a WAL attached, a PUT or DEL
// acknowledged on one connection is seen by every GET and EXIST issued
// after it on another, whichever tier serves the read — in place on
// the reader, or on the shard worker when the value still sits in an
// open page buffer.
func TestReadYourAckedWriteAcrossConns(t *testing.T) {
	set := openSet(t, withWAL(t, 2))
	_, addr, _, _ := serveSet(t, set, server.Options{})
	dial := func() *client.Client {
		c, err := client.Dial(client.Options{Addr: addr, Conns: 1})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	writer, reader := dial(), dial()

	const goroutines, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := []byte(fmt.Sprintf("ryw%d-%02d", g, i%16))
				v := []byte(fmt.Sprintf("v%d-%d", g, i))
				if err := writer.Put(k, v); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				if got, err := reader.Get(k); err != nil || !bytes.Equal(got, v) {
					t.Errorf("get %s after its acked put: %q, %v; want %q", k, got, err, v)
					return
				}
				if i%4 != 3 {
					continue
				}
				if err := writer.Del(k); err != nil {
					t.Errorf("del %s: %v", k, err)
					return
				}
				if got, err := reader.Get(k); !errors.Is(err, kvwire.ErrNotFound) {
					t.Errorf("get %s after its acked del: %q, %v; want not found", k, got, err)
					return
				}
				if ok, err := reader.Exist(k); err != nil || ok {
					t.Errorf("exist %s after its acked del: %v, %v", k, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := set.Stats(); st.OptimisticReads == 0 || st.FallbackExclusive == 0 {
		t.Fatalf("%d lock-free reads, %d locked reads: both tiers must serve", st.OptimisticReads, st.FallbackExclusive)
	}
}

// TestPageInGetsThroughWorker: with an index far larger than its cache
// most GETs need a record table paged in, which the reader refuses to
// do in place; the shard worker must serve them correctly.
func TestPageInGetsThroughWorker(t *testing.T) {
	set := openSet(t, rhik.Options{Shards: 1, CacheBudget: 1, AnticipatedKeys: 1 << 14})
	_, addr, _, _ := serveSet(t, set, server.Options{})
	c, err := client.Dial(client.Options{Addr: addr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const keys = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("cold%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := c.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := set.Checkpoint(); err != nil { // nothing left in a page buffer
		t.Fatal(err)
	}
	before := set.Stats().FallbackExclusive
	for i := 0; i < keys; i++ {
		if v, err := c.Get(key(i)); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s: %q, %v", key(i), v, err)
		}
		if ok, err := c.Exist(key(i)); err != nil || !ok {
			t.Fatalf("exist %s: %v, %v", key(i), ok, err)
		}
	}
	if _, err := c.Get([]byte("cold-absent")); !errors.Is(err, kvwire.ErrNotFound) {
		t.Fatalf("absent get: %v", err)
	}
	if n := set.Stats().FallbackExclusive - before; n < keys/2 {
		t.Fatalf("only %d of %d reads went to the shard worker: the cache is not tiny", n, 2*keys)
	}
}

// TestMalformedFrames: a parseable-length frame with a garbage body
// gets BAD_REQUEST and the connection is closed; a bad preamble is
// rejected outright.
func TestMalformedFrames(t *testing.T) {
	_, addr, _, _ := startServer(t, 1, server.Options{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	buf := kvwire.AppendPreamble(nil)
	buf = append(buf, 3, 0, 0, 0, 0xEE, 0x01, 0x00) // unknown opcode 0xEE
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	fr := kvwire.NewFrameReader(nc)
	body, err := fr.Next()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp kvwire.Response
	if err := resp.Parse(body); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if resp.Status != kvwire.StatusBadRequest {
		t.Fatalf("status = %v, want BAD_REQUEST", resp.Status)
	}
	if _, err := fr.Next(); err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("connection not closed after bad frame: %v", err)
	}

	// Wrong magic: the server drops the connection without a response.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc2.Close()
	nc2.Write([]byte{'B', 'A', 'D', '!'})
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := kvwire.NewFrameReader(nc2).Next(); err == nil {
		t.Fatal("server answered a bad preamble")
	}
}

// TestGracefulShutdown: inflight work finishes, the device checkpoints,
// Serve returns ErrServerClosed, and late clients are refused.
func TestGracefulShutdown(t *testing.T) {
	srv, addr, logs, served := startServer(t, 2, server.Options{})
	c, err := client.Dial(client.Options{Addr: addr})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("shut%03d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if !logs.contains("checkpoint complete") {
		t.Fatalf("no checkpoint logged; got %v", logs.lines)
	}
	// The old connection is gone and new dials are refused.
	if err := c.Put([]byte("late"), []byte("v")); err == nil {
		t.Fatal("put succeeded after shutdown")
	}
	if _, err := client.Dial(client.Options{Addr: addr, DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Second Shutdown is a quiet no-op.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
