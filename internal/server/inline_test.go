package server

import (
	"net"
	"testing"

	"repro/internal/device"
	"repro/internal/kvwire"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestInlineGetZeroAlloc pins the reader's in-place GET: a DRAM-resident
// read answered on the connection reader, reply included, allocates
// nothing, and never touches the shard worker's queue.
func TestInlineGetZeroAlloc(t *testing.T) {
	set, err := shard.New(1, device.Config{Capacity: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = workload.KeyBytes(uint64(i))
		if err := set.Store(keys[i], workload.ValuePayload(uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the open write page, whose values only the locked tier reads.
	if err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := New(set, Options{})
	nc, peer := net.Pipe()
	defer peer.Close()
	// Unbuffered, so each response frame is back in respPool before the
	// next GET builds one: the test counts the read path, not pool warm-up.
	c := &conn{srv: s, nc: nc, out: make(chan *[]byte)}
	drained := make(chan int)
	go func() {
		n := 0
		for pb := range c.out {
			respPool.Put(pb)
			n++
		}
		drained <- n
	}()

	req := kvwire.Request{Op: kvwire.OpGet}
	const runs = 2000
	allocs := testing.AllocsPerRun(runs, func() {
		req.ID++
		req.Key = keys[req.ID%uint64(len(keys))]
		s.admit(c, &req)
	})
	close(c.out)
	if n := <-drained; n != runs+1 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d replies for %d GETs", n, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("an in-place GET allocates %.1f times, want 0", allocs)
	}
	if st := set.Stats(); st.FallbackExclusive != 0 || len(s.queues[0]) != 0 {
		t.Fatalf("%d reads fell back, %d queued: not measuring the in-place path", st.FallbackExclusive, len(s.queues[0]))
	}
	set.Close()
}
