package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// wireTarget drives a kvserver through the pipelined client. MaxRetries
// is off, so a BUSY or DEADLINE refusal is a failed request.
type wireTarget struct{ c *client.Client }

func dialWire(addr string, conns int) (wireTarget, error) {
	c, err := client.Dial(client.Options{Addr: addr, Conns: conns, MaxRetries: -1})
	return wireTarget{c}, err
}

func (t wireTarget) get(dst, key []byte) ([]byte, error) { return t.c.Get(key) }
func (t wireTarget) put(key, value []byte) error         { return t.c.Put(key, value) }
func (t wireTarget) scan(prefix []byte, visit func(key, value []byte)) error {
	entries, err := t.c.Scan(prefix, 0)
	if err != nil {
		return err
	}
	for i := range entries {
		visit(entries[i].Key, entries[i].Value)
	}
	return nil
}

// preloadWire stores keys [0, records) at version 0 in BATCH frames of
// 128 puts, two callers per connection.
func preloadWire(sp *spec, t wireTarget, keys *keyTable) error {
	const batch = 128
	par := 2 * sp.conns
	var wg sync.WaitGroup
	errs := make([]error, par)
	per := (sp.records + uint64(par) - 1) / uint64(par)
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := uint64(p)*per, min(uint64(p+1)*per, sp.records)
			vals := make([]byte, batch*sp.valMin)
			for i := range vals {
				vals[i] = byte('a' + i%sp.valMin%26)
			}
			var b client.Batch
			for id := lo; id < hi; {
				b.Reset()
				for i := 0; i < batch && id < hi; i++ {
					b.Put(keys.key(id, nil), fillValue(vals[i*sp.valMin:], sp.valMin, id, 0))
					id++
				}
				res, err := t.c.Do(&b)
				if err == nil && res.Failed() > 0 {
					for _, e := range res.Errs {
						if e != nil {
							err = e
							break
						}
					}
				}
				if err != nil {
					errs[p] = fmt.Errorf("preload batch ending at key %d: %w", id, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kvServer is a running kvserver: the real binary as a subprocess, or (smoke
// test) internal/server on a loopback listener inside this process.
type kvServer interface {
	addr() string
	// pid is the process whose CPU time and peak RSS are the server's;
	// 0 when the server shares this process.
	pid() int
	// replayed is the number of WAL records the server replayed at start.
	replayed() int64
	// kill ends the server the way kill -9 would: no drain, no checkpoint,
	// no final sync. It returns once the server has ended.
	kill() error
}

// procServer runs the kvserver binary.
type procServer struct {
	cmd       *exec.Cmd
	listen    string
	replayedN int64
	logTail   *tailBuffer
	drained   chan struct{}
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+) `)
	replayRE = regexp.MustCompile(`wal on .* (\d+) records replayed`)
)

// startProcServer executes bin and returns once it is listening (and, with
// a WAL, has reported what it replayed).
func startProcServer(bin string, args []string, wal bool) (*procServer, error) {
	cmd := exec.Command(bin, args...)
	// Same core budget as the generator, and the server must not outlive
	// a runner that dies.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", loadProcs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &procServer{cmd: cmd, logTail: &tailBuffer{}, drained: make(chan struct{})}
	trackChild(cmd.Process)

	type ready struct {
		listen   string
		replayed int64
	}
	readyCh := make(chan ready, 1)
	go func() {
		defer close(s.drained)
		var r ready
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logTail.add(line)
			if sent {
				continue
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				r.listen = m[1]
			}
			if m := replayRE.FindStringSubmatch(line); m != nil {
				r.replayed, _ = strconv.ParseInt(m[1], 10, 64)
			}
			if r.listen != "" && (!wal || replayRE.MatchString(line)) {
				readyCh <- r
				sent = true
			}
		}
		if !sent {
			close(readyCh)
		}
	}()
	select {
	case r, ok := <-readyCh:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("kvserver exited before listening:\n%s", s.logTail)
		}
		s.listen, s.replayedN = r.listen, r.replayed
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("kvserver not listening after 60 s:\n%s", s.logTail)
	}
}

func (s *procServer) addr() string    { return s.listen }
func (s *procServer) pid() int        { return s.cmd.Process.Pid }
func (s *procServer) replayed() int64 { return s.replayedN }

func (s *procServer) kill() error {
	s.cmd.Process.Kill()
	<-s.drained  // stderr closed: every log line is in
	s.cmd.Wait() // its error only says the process was killed
	untrackChild(s.cmd.Process)
	return nil
}

// tailBuffer keeps the last lines a server logged, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) >= 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// Children are tracked so that a signal to the runner takes them along.
var (
	childMu  sync.Mutex
	children = map[*os.Process]struct{}{}
)

func trackChild(p *os.Process)   { childMu.Lock(); children[p] = struct{}{}; childMu.Unlock() }
func untrackChild(p *os.Process) { childMu.Lock(); delete(children, p); childMu.Unlock() }
func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for p := range children {
		p.Kill()
	}
}

// buildServer compiles cmd/kvserver into dir and returns the binary's
// path. Its time is not part of setup_s.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "kvserver")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/kvserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/kvserver: %v\n%s", err, out)
	}
	return bin, nil
}

// wireCounters fetches the server's STATS.
func wireCounters(t wireTarget) (counters, error) {
	st, err := t.c.Stats()
	if err != nil {
		return counters{}, fmt.Errorf("STATS: %w", err)
	}
	return countersOfWire(st), nil
}

// firstGet polls addr until a GET of key succeeds: the "ready" instant of
// a restarted server.
func firstGet(addr string, key []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		t, err := dialWire(addr, 1)
		if err == nil {
			_, err = t.c.Get(key)
			t.c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no successful GET from %s: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
