// Command kvbench is the KVBench-style workload driver the paper uses
// for its microbenchmarks (§V-A): configurable key distribution, value
// sizes, operation mix, and sync/async submission against the emulated
// KVSSD, reporting simulated throughput and latency.
//
// The device front-end is sharded (-shards) and the host side is
// multi-threaded (-threads): each thread drives its own op stream into
// the shared DB, so on a multi-core machine the bench demonstrates
// wall-clock throughput scaling as shards remove the global serial
// bottleneck.
//
// Examples:
//
//	kvbench -n 100000 -value 4096
//	kvbench -index mlhash -keys zipfian -theta 0.9 -mix readmostly -n 200000
//	kvbench -mode sync -value 65536 -n 5000
//	kvbench -shards 8 -threads 8 -keys uniform -mix readmostly -n 200000
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	rhik "repro"
	"repro/internal/workload"
)

func main() {
	var (
		capacity  = flag.Int64("capacity", 1<<30, "emulated capacity in bytes")
		indexName = flag.String("index", "rhik", "index scheme: rhik, mlhash, lsm")
		keyDist   = flag.String("keys", "sequential", "key distribution: sequential, uniform, zipfian")
		theta     = flag.Float64("theta", 0.99, "zipfian skew")
		n         = flag.Int64("n", 100_000, "operation count (split across threads)")
		keyspace  = flag.Int64("keyspace", 0, "distinct keys for uniform/zipfian (default n)")
		valueSize = flag.Int("value", 1024, "fixed value size in bytes")
		dist      = flag.String("dist", "", "value-size distribution: atlas, etc, udb, zippydb, up2x (overrides -value)")
		mixName   = flag.String("mix", "write", "operation mix: write, read, readmostly")
		mode      = flag.String("mode", "async", "submission mode: sync, async")
		keySize   = flag.Int("keysize", 16, "key size in bytes")
		cache     = flag.Int64("cache", 10<<20, "index DRAM cache budget")
		seed      = flag.Int64("seed", 42, "generator seed")
		shards    = flag.Int("shards", 0, "device shards, power of two (0 = GOMAXPROCS)")
		threads   = flag.Int("threads", 1, "concurrent client goroutines")
		batchSize = flag.Int("batch", 512, "async submission batch size per thread")
	)
	flag.Parse()

	opts := rhik.Options{
		Capacity:    *capacity,
		CacheBudget: *cache,
		Shards:      *shards,
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
	if *threads < 1 {
		fatalf("-threads must be >= 1")
	}

	if *keyspace == 0 {
		*keyspace = *n
	}
	var mix workload.Mix
	switch *mixName {
	case "write":
		mix = workload.WriteOnly
	case "read":
		mix = workload.ReadOnly
	case "readmostly":
		mix = workload.ReadMostly
	default:
		fatalf("unknown mix %q", *mixName)
	}
	if *mode != "sync" && *mode != "async" {
		fatalf("unknown mode %q", *mode)
	}

	// Per-thread stateful generators: each thread owns an independent
	// key/size/op stream so no generator lock serializes the clients.
	perThread := (*n + int64(*threads) - 1) / int64(*threads)
	newKeys := func(tid int) workload.KeyGen {
		switch *keyDist {
		case "sequential":
			return workload.NewSequential(uint64(int64(tid) * perThread))
		case "uniform":
			return workload.NewUniform(uint64(*keyspace), *seed+int64(tid))
		case "zipfian":
			return workload.NewZipfian(uint64(*keyspace), *theta, *seed+int64(tid))
		default:
			fatalf("unknown key distribution %q", *keyDist)
			return nil
		}
	}
	newSizes := func(tid int) workload.SizeDist {
		s := *seed + 7*int64(tid)
		switch *dist {
		case "":
			return workload.Fixed{Size: *valueSize}
		case "atlas":
			return workload.BaiduAtlasWrite(s)
		case "etc":
			return workload.FacebookETC(s)
		case "udb", "zippydb", "up2x":
			names := map[string]string{"udb": "UDB", "zippydb": "ZippyDB", "up2x": "UP2X"}
			sd, err := workload.RocksDBProfile(names[*dist], s)
			if err != nil {
				fatalf("%v", err)
			}
			return sd
		default:
			fatalf("unknown value distribution %q", *dist)
			return nil
		}
	}

	db, err := rhik.Open(opts)
	if err != nil {
		fatalf("open: %v", err)
	}
	ks := *keySize
	if ks == 16 {
		ks = 0 // canonical fast path
	}

	// Pre-fill the keyspace for read-bearing mixes.
	if mix.Retrieve > 0 || mix.Delete > 0 || mix.Exist > 0 {
		fmt.Fprintf(os.Stderr, "prefilling %d keys...\n", *keyspace)
		sizes := newSizes(0)
		for i := int64(0); i < *keyspace; i++ {
			op := workload.Op{Kind: workload.OpStore, KeyID: uint64(i), KeySize: ks, ValueSize: sizes.Next()}
			if err := db.Store(op.Key(), workload.ValuePayload(op.KeyID, op.ValueSize)); err != nil {
				fatalf("prefill %d: %v", i, err)
			}
		}
	}
	simStart := db.Elapsed()

	type tally struct {
		ops, bytesMoved, notFound, collisions int64
	}
	tallies := make([]tally, *threads)
	start := time.Now()
	var wg sync.WaitGroup
	for tid := 0; tid < *threads; tid++ {
		nOps := perThread
		if int64(tid+1)*perThread > *n {
			nOps = *n - int64(tid)*perThread
		}
		if nOps <= 0 {
			break
		}
		wg.Add(1)
		go func(tid int, nOps int64) {
			defer wg.Done()
			gen := workload.NewGenerator(newKeys(tid), newSizes(tid), mix, ks, *seed+1+int64(tid))
			tl := &tallies[tid]
			record := func(err error) {
				switch {
				case err == nil:
				case errors.Is(err, rhik.ErrNotFound):
					tl.notFound++
				case errors.Is(err, rhik.ErrCollision):
					tl.collisions++
				default:
					fatalf("thread %d: %v", tid, err)
				}
			}
			if *mode == "sync" {
				for i := int64(0); i < nOps; i++ {
					op := gen.Next()
					switch op.Kind {
					case workload.OpStore:
						record(db.Store(op.Key(), workload.ValuePayload(op.KeyID, op.ValueSize)))
						tl.bytesMoved += int64(op.ValueSize)
					case workload.OpRetrieve:
						v, err := db.Retrieve(op.Key())
						record(err)
						tl.bytesMoved += int64(len(v))
					case workload.OpDelete:
						record(db.Delete(op.Key()))
					case workload.OpExist:
						_, err := db.Exist(op.Key())
						record(err)
					}
					tl.ops++
				}
				return
			}
			// Async: deep per-thread batches expose die-level overlap and
			// fan out across shards inside Apply.
			for done := int64(0); done < nOps; {
				var b rhik.Batch
				for ; done < nOps && b.Len() < *batchSize; done++ {
					op := gen.Next()
					switch op.Kind {
					case workload.OpStore:
						b.Store(op.Key(), workload.ValuePayload(op.KeyID, op.ValueSize))
						tl.bytesMoved += int64(op.ValueSize)
					case workload.OpRetrieve, workload.OpExist:
						b.Retrieve(op.Key())
					case workload.OpDelete:
						b.Delete(op.Key())
					}
					tl.ops++
				}
				res := db.Apply(&b, 0)
				for i, err := range res.Errs {
					record(err)
					tl.bytesMoved += int64(len(res.Values[i]))
				}
			}
		}(tid, nOps)
	}
	wg.Wait()
	wall := time.Since(start)
	simElapsed := db.Elapsed() - simStart

	var tot tally
	for _, tl := range tallies {
		tot.ops += tl.ops
		tot.bytesMoved += tl.bytesMoved
		tot.notFound += tl.notFound
		tot.collisions += tl.collisions
	}

	fmt.Printf("workload: %s keys, mix=%s, mode=%s, index=%s, shards=%d, threads=%d\n",
		*keyDist, *mixName, *mode, *indexName, db.Shards(), *threads)
	fmt.Printf("ops: %d (%d not-found, %d collision aborts)\n", tot.ops, tot.notFound, tot.collisions)
	fmt.Printf("simulated: %v   wall: %v\n", simElapsed, wall.Round(time.Millisecond))
	if wall > 0 {
		fmt.Printf("wall throughput: %.1f kops/s\n", float64(tot.ops)/wall.Seconds()/1e3)
	}
	if simElapsed > 0 {
		fmt.Printf("simulated throughput: %.1f kops/s, %.1f MB/s\n",
			float64(tot.ops)/simElapsed.Seconds()/1e3, float64(tot.bytesMoved)/simElapsed.Seconds()/1e6)
	}

	s := db.Stats()
	fmt.Printf("latency: store p50=%v p99=%v, retrieve p50=%v p99=%v (simulated)\n",
		s.StoreP50, s.StoreP99, s.RetrieveP50, s.RetrieveP99)
	missRatio := 0.0
	if s.CacheHits+s.CacheMisses > 0 {
		missRatio = float64(s.CacheMisses) / float64(s.CacheHits+s.CacheMisses)
	}
	fmt.Printf("index: records=%d dirEntries=%d resizes=%d cacheMiss=%.3f\n",
		s.IndexRecords, s.DirectoryEntries, s.Resizes, missRatio)
	fmt.Printf("flash: reads=%d programs=%d erases=%d gcRuns=%d resizeHalt=%v\n",
		s.FlashReads, s.FlashPrograms, s.FlashErases, s.GCRuns, s.ResizeHaltTotal)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvbench: "+format+"\n", args...)
	os.Exit(1)
}
