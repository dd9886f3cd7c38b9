// Command kvserver serves an emulated KVSSD over TCP with the kvwire
// protocol, turning the in-process sharded device into a network
// service that cmd/kvload (or any kvwire client) can drive.
//
// Flags mirror kvbench where they overlap, so serving-path numbers can
// be compared against library-boundary numbers on the same device
// configuration:
//
//	kvserver -addr 127.0.0.1:7700 -shards 8 -capacity 1073741824 -index rhik
//
// -wal-dir attaches a per-shard write-ahead log: acknowledged writes
// survive process kill and are replayed into the emulated device on the
// next start (-wal-fsync picks the always/group/none durability
// trade-off, -checkpoint bounds log growth by periodically advancing
// the compaction horizon). -prefixlen enables iterator-mode signatures
// and with them the wire SCAN op kvload's YCSB-E issues.
//
// On SIGTERM or SIGINT the server drains gracefully: it stops
// accepting, finishes every admitted request, flushes responses,
// checkpoints the device, and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	rhik "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "TCP listen address (use :0 for an ephemeral port)")
		shards    = flag.Int("shards", 0, "device shards, power of two (0 = GOMAXPROCS)")
		capacity  = flag.Int64("capacity", 1<<30, "emulated capacity in bytes")
		cache     = flag.Int64("cache", 10<<20, "index DRAM cache budget")
		indexName = flag.String("index", "rhik", "index scheme: rhik, mlhash, lsm")
		incr      = flag.Bool("incremental", false, "incremental (real-time) index resizing")
		inflight  = flag.Int("inflight", 4096, "max admitted-but-unanswered requests before BUSY")
		queue     = flag.Int("queue", 256, "per-shard worker queue depth before BUSY")
		timeout   = flag.Duration("timeout", 0, "per-request queue deadline (0 = none)")
		pprofAddr = flag.String("pprof", "", "HTTP listen address for net/http/pprof (empty = disabled)")
		prefixLen = flag.Int("prefixlen", 0, "iterator-mode signature prefix bytes; enables SCAN (0 = disabled; YCSB-E needs 14)")
		walDir    = flag.String("wal-dir", "", "write-ahead-log directory; enables durable writes (empty = no WAL)")
		walFsync  = flag.String("wal-fsync", "group", "WAL fsync policy: always, group, or none")
		walSeg    = flag.Int64("wal-segment", 0, "WAL segment rotation size in bytes (0 = default 4 MiB)")
		ckptEvery = flag.Duration("checkpoint", 0, "periodic checkpoint interval; advances the WAL compaction horizon (0 = only at shutdown)")
		valCache  = flag.Int64("value-cache", 0, "hot-value DRAM cache budget in bytes; 0 disables the value tier")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("kvserver: ")

	if *pprofAddr != "" {
		// Mutex profiling is what the read-path lock split is tuned with:
		// /debug/pprof/mutex shows contention on the per-shard RWMutexes.
		// Sampling 1-in-5 keeps the hot shared path cheap.
		runtime.SetMutexProfileFraction(5)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	opts := rhik.Options{
		Capacity:          *capacity,
		CacheBudget:       *cache,
		Shards:            *shards,
		IncrementalResize: *incr,
		IteratorPrefixLen: *prefixLen,
		ValueCacheBudget:  *valCache,
		WAL: rhik.WALOptions{
			Dir:         *walDir,
			Fsync:       *walFsync,
			SegmentSize: *walSeg,
		},
	}
	switch *indexName {
	case "rhik":
		opts.Index = rhik.RHIK
	case "mlhash":
		opts.Index = rhik.MultiLevel
	case "lsm":
		opts.Index = rhik.LSM
	default:
		fatalf("unknown index %q", *indexName)
	}

	set, err := rhik.OpenSet(opts)
	if err != nil {
		fatalf("open: %v", err)
	}
	srv := server.New(set, server.Options{
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Logf:           log.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	log.Printf("listening on %s (shards=%d index=%s capacity=%d MiB)",
		ln.Addr(), set.N(), *indexName, *capacity>>20)
	if *walDir != "" {
		ws := set.WALStats()
		log.Printf("wal on %s (fsync=%s, %d records replayed)", *walDir, *walFsync, ws.Replayed)
	}

	// Periodic checkpoints bound WAL growth on a long-running server:
	// each one makes accepted writes durable, advances every shard log's
	// compaction horizon, and folds the segments beneath it. Without
	// them the horizon only moves at shutdown, so a crashed server
	// replays its whole write history.
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	var ckptOnce sync.Once
	// Signals the loop AND waits for any in-flight checkpoint, so Close
	// never races a horizon stamp on a closing log.
	stopCheckpoints := func() {
		ckptOnce.Do(func() { close(stopCkpt) })
		<-ckptDone
	}
	if *ckptEvery <= 0 {
		close(ckptDone)
	} else {
		go func() {
			defer close(ckptDone)
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					if err := set.Checkpoint(); err != nil {
						log.Printf("periodic checkpoint: %v", err)
						return
					}
					if *walDir != "" {
						ws := set.WALStats()
						log.Printf("checkpoint: wal horizon advanced (%d compactions, %d segments removed)",
							ws.Compactions, ws.SegmentsRemoved)
					}
				}
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		s := <-sigc
		log.Printf("%v: beginning graceful drain", s)
		stopCheckpoints()
		srv.Shutdown()
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, server.ErrServerClosed) {
		fatalf("serve: %v", err)
	}
	// Serve returns as soon as the listener closes; wait for the drain
	// (idempotent — blocks until the signal handler's Shutdown is done).
	stopCheckpoints()
	srv.Shutdown()
	log.Printf("shutdown complete")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvserver: "+format+"\n", args...)
	os.Exit(1)
}
