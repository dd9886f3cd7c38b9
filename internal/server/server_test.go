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
	set, err := rhik.OpenSet(rhik.Options{Capacity: 256 << 20, Shards: shards})
	if err != nil {
		t.Fatalf("OpenSet: %v", err)
	}
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
	set, err := rhik.OpenSet(rhik.Options{Capacity: 256 << 20, Shards: 4, IteratorPrefixLen: 6})
	if err != nil {
		t.Fatalf("OpenSet: %v", err)
	}
	logs := &logBuf{}
	srv := server.New(set, server.Options{Logf: logs.logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown() })

	c, err := client.Dial(client.Options{Addr: ln.Addr().String()})
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
// a retrying client still completes every op.
func TestBusyBackpressure(t *testing.T) {
	_, addr, _, _ := startServer(t, 1, server.Options{MaxInflight: 4})

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

// TestRequestDeadline verifies queued-past-deadline requests are
// dropped with DEADLINE instead of executing.
func TestRequestDeadline(t *testing.T) {
	_, addr, _, _ := startServer(t, 1, server.Options{RequestTimeout: time.Nanosecond})
	c, err := client.Dial(client.Options{Addr: addr, MaxRetries: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Any nonzero queue wait exceeds 1ns, so the request must be shed.
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, kvwire.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
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
