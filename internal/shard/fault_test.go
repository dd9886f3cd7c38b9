package shard

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hopscotch"
	"repro/internal/nand"
	"repro/internal/workload"
)

// TestReadFaultSurfacesThroughSet pins the fault contract through the
// front-end: an uncorrectable flash read that fails a GET or an EXIST
// surfaces as nand.ErrReadFault, as it does from the device's locked
// read. The command records one metadata-read sample, is counted in
// neither Retrieves nor Exists, and is not run again under the lock; a
// second run would hide the fault, because the injected one is consumed
// by the first read. Each op is checked on a read served lock-free from
// a resident table, where the data page read fails, and on one answered
// from its bucket's page image, where the index page read fails.
func TestReadFaultSurfacesThroughSet(t *testing.T) {
	const keys = 2000
	geo := nand.DefaultConfig(64 << 20)
	table := int64(hopscotch.EncodedSize(core.RecordsPerTable(geo.PageSize, false)))
	cases := []struct {
		name  string
		cfg   device.Config
		image bool // the read is answered from its bucket's page image
	}{
		{name: "resident", cfg: device.Config{Capacity: 64 << 20}},
		// 2 000 keys over 16 buckets behind a cache of 8 tables, all clean
		// after the checkpoint: a miss leaves the cache alone.
		{name: "image", cfg: device.Config{Capacity: 64 << 20, AnticipatedKeys: 1 << 14, CacheBudget: 8 * table}, image: true},
	}
	val := bytes.Repeat([]byte("v"), 512)
	for _, tc := range cases {
		for _, op := range []string{"get", "exist"} {
			t.Run(tc.name+"/"+op, func(t *testing.T) {
				set, err := New(1, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { set.Close() })
				for i := 0; i < keys; i++ {
					if err := set.Store(workload.KeyBytes(uint64(i)), val); err != nil {
						t.Fatal(err)
					}
				}
				if err := set.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// A key the lock-free tier serves as the case asks: from the
				// page image (one index page read) or from a resident table.
				// Either read leaves the cache's membership as it was.
				var k []byte
				for i := 0; i < keys && k == nil; i++ {
					c := workload.KeyBytes(uint64(i))
					before := set.Stats().MetaPerGet
					if _, err := set.TryRetrieveAppend(nil, c); err != nil {
						continue
					}
					after := set.Stats().MetaPerGet
					if fromImage := after.Count()-after.CountAtMost(0) > before.Count()-before.CountAtMost(0); fromImage == tc.image {
						k = c
					}
				}
				if k == nil {
					t.Fatalf("no key is served lock-free with image=%v", tc.image)
				}

				read := func() error {
					if op == "get" {
						v, err := set.Retrieve(k)
						if err == nil && !bytes.Equal(v, val) {
							t.Fatalf("Retrieve returned %d bytes, want the stored value", len(v))
						}
						return err
					}
					ok, err := set.Exist(k)
					if err == nil && !ok {
						t.Fatal("Exist = false for a stored key")
					}
					return err
				}
				before := set.Stats()
				set.Shard(0).dev.Flash().FailNextReads(1)
				if err := read(); !errors.Is(err, nand.ErrReadFault) {
					t.Fatalf("faulted %s: err = %v, want ErrReadFault", op, err)
				}
				after := set.Stats()
				if n := after.MetaPerOp.Count() - before.MetaPerOp.Count(); n != 1 {
					t.Fatalf("faulted %s recorded %d metadata-read samples, want 1", op, n)
				}
				if after.Dev.Retrieves != before.Dev.Retrieves || after.Dev.Exists != before.Dev.Exists {
					t.Fatalf("faulted %s counted: retrieves %d -> %d, exists %d -> %d", op,
						before.Dev.Retrieves, after.Dev.Retrieves, before.Dev.Exists, after.Dev.Exists)
				}
				if after.FallbackExclusive != before.FallbackExclusive {
					t.Fatalf("faulted %s was run again under the lock", op)
				}
				// The fault is consumed: the same read answers now.
				if err := read(); err != nil {
					t.Fatalf("%s after the fault: %v", op, err)
				}
			})
		}
	}
}
