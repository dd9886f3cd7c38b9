// Command kvcli is an interactive (or scripted) shell over the emulated
// KVSSD's SNIA-style KV interface. It is useful for poking at device
// behaviour — resizes, GC, recovery — by hand.
//
// Usage:
//
//	kvcli [-capacity BYTES] [-index rhik|mlhash] [-shards N] [-prefixlen N] [< script]
//	kvcli walinfo <wal-root>
//	kvcli backup  <addr> <file>
//	kvcli restore <addr> <file>
//	kvcli cachestats <addr>
//
// cachestats queries a running kvserver's STATS op and prints one table
// covering every DRAM tier in front of flash: index-page cache hit
// ratio, hot-value cache hit ratio, and scan-prefetch effectiveness.
//
// walinfo inspects a write-ahead-log directory offline — segment list,
// per-segment sequence ranges, checkpoint horizon, and the recovery
// point — without opening a device or modifying the log. It is safe on
// the WAL of a crashed (or even running) server.
//
// backup streams a consistent online checkpoint from a running kvserver
// (writers keep committing) into a self-verifying file; restore replays
// such a file into a (typically fresh) server. See backup.go for the
// file format.
//
// Commands:
//
//	put <key> <value>      store a pair
//	get <key>              retrieve a value
//	del <key>              delete a key
//	exist <key>            membership check
//	batch <op> <args> ...  async batch, e.g. batch put a 1 get a del b
//	iter <prefix>          enumerate keys by prefix (needs -prefixlen)
//	fill <n> <valueBytes>  bulk-load n synthetic pairs
//	stats                  device/index counters
//	checkpoint             force a durability checkpoint
//	restart                simulate power loss + recovery
//	help                   this text
//	quit                   exit
//
// With -shards > 1 every command routes through the sharded front-end:
// single-key commands go to the owning shard, and batch fans its ops
// out across shards concurrently, joining results in submission order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	rhik "repro"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	capacity := flag.Int64("capacity", 256<<20, "emulated capacity in bytes")
	indexName := flag.String("index", "rhik", "index scheme: rhik or mlhash")
	shards := flag.Int("shards", 1, "device shards, power of two (0 = GOMAXPROCS)")
	prefixLen := flag.Int("prefixlen", 0, "iterator-mode signature prefix length")
	flag.Parse()

	if flag.Arg(0) == "walinfo" {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: kvcli walinfo <wal-root>")
			os.Exit(2)
		}
		if err := walinfo(flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "kvcli: walinfo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "cachestats" {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: kvcli cachestats <addr>")
			os.Exit(2)
		}
		if err := runCacheStats(flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "kvcli: cachestats: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if cmd := flag.Arg(0); cmd == "backup" || cmd == "restore" {
		if flag.NArg() != 3 {
			fmt.Fprintf(os.Stderr, "usage: kvcli %s <addr> <file>\n", cmd)
			os.Exit(2)
		}
		run := runBackup
		if cmd == "restore" {
			run = runRestore
		}
		if err := run(flag.Arg(1), flag.Arg(2)); err != nil {
			fmt.Fprintf(os.Stderr, "kvcli: %s: %v\n", cmd, err)
			os.Exit(1)
		}
		return
	}

	opts := rhik.Options{Capacity: *capacity, Shards: *shards, IteratorPrefixLen: *prefixLen}
	switch *indexName {
	case "rhik":
		opts.Index = rhik.RHIK
	case "mlhash":
		opts.Index = rhik.MultiLevel
	default:
		fmt.Fprintf(os.Stderr, "kvcli: unknown index %q\n", *indexName)
		os.Exit(2)
	}
	db, err := rhik.Open(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvcli: %v\n", err)
		os.Exit(1)
	}

	sc := bufio.NewScanner(os.Stdin)
	interactive := isTTY()
	if interactive {
		fmt.Printf("emulated %s KVSSD, %d MiB, %d shard(s). 'help' for commands.\n",
			*indexName, *capacity>>20, db.Shards())
	}
	for {
		if interactive {
			fmt.Print("kv> ")
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := execute(db, line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "kvcli: close: %v\n", err)
	}
}

func execute(db *rhik.DB, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		if err := db.Store([]byte(args[0]), []byte(args[1])); err != nil {
			return err
		}
		fmt.Println("ok")
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := db.Retrieve([]byte(args[0]))
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", v)
	case "del":
		if len(args) != 1 {
			return fmt.Errorf("usage: del <key>")
		}
		if err := db.Delete([]byte(args[0])); err != nil {
			return err
		}
		fmt.Println("ok")
	case "exist":
		if len(args) != 1 {
			return fmt.Errorf("usage: exist <key>")
		}
		ok, err := db.Exist([]byte(args[0]))
		if err != nil {
			return err
		}
		fmt.Println(ok)
	case "batch":
		b, err := parseBatch(args)
		if err != nil {
			return err
		}
		res := db.Apply(b, 0)
		for i, e := range res.Errs {
			switch {
			case e != nil:
				fmt.Printf("[%d] error: %v\n", i, e)
			case res.Values[i] != nil:
				fmt.Printf("[%d] %q\n", i, res.Values[i])
			default:
				fmt.Printf("[%d] ok\n", i)
			}
		}
		fmt.Printf("(%d ops, %d failed, %v simulated)\n", b.Len(), res.Failed(), res.Elapsed)
	case "iter":
		if len(args) != 1 {
			return fmt.Errorf("usage: iter <prefix>")
		}
		entries, err := db.Iterate([]byte(args[0]))
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Printf("%s = %q\n", e.Key, e.Value)
		}
		fmt.Printf("(%d entries)\n", len(entries))
	case "fill":
		if len(args) != 2 {
			return fmt.Errorf("usage: fill <n> <valueBytes>")
		}
		n, err1 := strconv.Atoi(args[0])
		vb, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil || n < 0 || vb < 0 {
			return fmt.Errorf("usage: fill <n> <valueBytes>")
		}
		var b rhik.Batch
		for i := 0; i < n; i++ {
			b.Store(workload.KeyBytes(uint64(i)), workload.ValuePayload(uint64(i), vb))
		}
		res := db.Apply(&b, 0)
		fmt.Printf("stored %d pairs (%d failed) in %v simulated\n", n-res.Failed(), res.Failed(), res.Elapsed)
	case "stats":
		s := db.Stats()
		fmt.Printf("index=%s shards=%d records=%d dirEntries=%d resizes=%d halt=%v collisions=%d\n",
			s.IndexScheme, db.Shards(), s.IndexRecords, s.DirectoryEntries, s.Resizes, s.ResizeHaltTotal, s.CollisionAborts)
		fmt.Printf("ops: store=%d get=%d del=%d exist=%d  bytes: w=%d r=%d\n",
			s.Stores, s.Retrieves, s.Deletes, s.Exists, s.BytesWritten, s.BytesRead)
		fmt.Printf("flash: reads=%d programs=%d erases=%d gcRuns=%d ckpts=%d recoveries=%d\n",
			s.FlashReads, s.FlashPrograms, s.FlashErases, s.GCRuns, s.Checkpoints, s.Recoveries)
		fmt.Printf("cache: hits=%d misses=%d  latency: store p50=%v p99=%v get p50=%v p99=%v\n",
			s.CacheHits, s.CacheMisses, s.StoreP50, s.StoreP99, s.RetrieveP50, s.RetrieveP99)
		fmt.Printf("simulated elapsed: %v\n", db.Elapsed())
	case "checkpoint":
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("ok")
	case "restart":
		if err := db.Restart(); err != nil {
			return err
		}
		fmt.Println("recovered")
	case "help":
		fmt.Println("put get del exist batch iter fill stats checkpoint restart quit")
		fmt.Println("batch syntax: batch put <k> <v> [get <k>] [del <k>] ... (fans out across shards)")
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// parseBatch greedily parses "put <k> <v> get <k> del <k> ..." into an
// async batch; each sub-op has fixed arity so the grammar needs no
// separators.
func parseBatch(args []string) (*rhik.Batch, error) {
	usage := fmt.Errorf("usage: batch {put <k> <v> | get <k> | del <k>} ...")
	if len(args) == 0 {
		return nil, usage
	}
	var b rhik.Batch
	for i := 0; i < len(args); {
		switch args[i] {
		case "put":
			if i+2 >= len(args) {
				return nil, usage
			}
			b.Store([]byte(args[i+1]), []byte(args[i+2]))
			i += 3
		case "get":
			if i+1 >= len(args) {
				return nil, usage
			}
			b.Retrieve([]byte(args[i+1]))
			i += 2
		case "del":
			if i+1 >= len(args) {
				return nil, usage
			}
			b.Delete([]byte(args[i+1]))
			i += 2
		default:
			return nil, fmt.Errorf("batch: unknown sub-op %q (want put/get/del)", args[i])
		}
	}
	return &b, nil
}

// walinfo prints an offline report of a WAL root: the topology manifest,
// then per shard the segment list with sequence ranges and the recovery
// point (everything on disk is replayed; the horizon only gates
// compaction).
func walinfo(root string) error {
	m, err := wal.ReadManifest(root)
	if err != nil {
		return fmt.Errorf("%s: %w (is this a WAL root?)", root, err)
	}
	fmt.Printf("%s: rhik-wal v1, shards=%d sigbits=%d prefixlen=%d\n",
		root, m.Shards, m.SigBits, m.PrefixLen)
	var totalRecords, totalSegments int
	var torn int64
	for s := 0; s < m.Shards; s++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%04d", s))
		info, err := wal.Inspect(dir)
		if err != nil {
			return err
		}
		fmt.Printf("shard %d: %d segment(s), %d record(s), horizon=%d lastSeq=%d\n",
			s, len(info.Segments), info.Records, info.Horizon, info.LastSeq)
		for _, seg := range info.Segments {
			line := fmt.Sprintf("  %s  %8d B  %6d rec", seg.Name, seg.Size, seg.Records)
			if seg.Records > 0 {
				line += fmt.Sprintf("  seq [%d, %d]", seg.MinSeq, seg.MaxSeq)
			}
			if seg.Covered {
				line += "  (compactable)"
			}
			if seg.TornBytes > 0 {
				line += fmt.Sprintf("  TORN TAIL: %d B (recovery truncates)", seg.TornBytes)
			}
			fmt.Println(line)
		}
		totalRecords += info.Records
		totalSegments += len(info.Segments)
		for _, seg := range info.Segments {
			torn += seg.TornBytes
		}
	}
	fmt.Printf("recovery replays %d record(s) from %d segment(s)", totalRecords, totalSegments)
	if torn > 0 {
		fmt.Printf("; %d torn byte(s) will be truncated", torn)
	}
	fmt.Println()
	return nil
}

func isTTY() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
