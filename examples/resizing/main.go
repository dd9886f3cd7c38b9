// Resizing: watch RHIK re-configure itself as the key population grows.
// The device starts with a minimal (single-bucket) index; every time
// occupancy crosses 80 % the directory doubles at once and the records
// migrate, bucket by bucket as later commands touch them, using only
// their stored signatures — the paper's "real-time index scaling"
// future work, which is the default. The example prints each resize
// event (its migration window, from the doubling to the last bucket
// split) and the total submission-queue halt time, which stays at the
// directory swaps. The paper's Fig. 7 measures the stop-the-world
// migration instead: `go run ./cmd/rhikbench fig7`.
package main

import (
	"fmt"
	"log"

	rhik "repro"
	"repro/internal/workload"
)

func main() {
	// One shard: a single directory makes the doubling cascade visible.
	db, err := rhik.Open(rhik.Options{Capacity: 512 << 20, Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const keys = 200_000
	var batch rhik.Batch
	for i := 0; i < keys; i++ {
		batch.Store(workload.KeyBytes(uint64(i)), workload.ValuePayload(uint64(i), 64))
	}
	res := db.Apply(&batch, 0)
	if n := res.Failed(); n > 0 {
		log.Fatalf("%d stores failed", n)
	}

	fmt.Printf("inserted %d keys in %v simulated\n\n", keys, res.Elapsed)
	fmt.Printf("%-6s %-14s %-14s %-12s\n", "#", "keys before", "new capacity", "migration")
	var prev rhik.ResizeEvent
	for i, e := range db.ResizeEvents() {
		rate := ""
		if i > 0 && prev.Took > 0 {
			rate = fmt.Sprintf("(rate %.2f)", float64(e.Took)/(2*float64(prev.Took)))
		}
		fmt.Printf("%-6d %-14d %-14d %-12v %s\n", i+1, e.KeysBefore, e.NewCapacity, e.Took, rate)
		prev = e
	}

	s := db.Stats()
	fmt.Printf("\ndirectory entries: %d, records: %d, total resize halt: %v\n",
		s.DirectoryEntries, s.IndexRecords, s.ResizeHaltTotal)
	fmt.Printf("every key remains reachable: spot-checking...\n")
	for i := 0; i < keys; i += keys / 10 {
		if _, err := db.Retrieve(workload.KeyBytes(uint64(i))); err != nil {
			log.Fatalf("key %d lost: %v", i, err)
		}
	}
	fmt.Println("ok")
}
