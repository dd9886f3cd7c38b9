package device

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/nand"
)

// Fault-injection tests: uncorrectable flash errors must surface as
// command errors without corrupting unrelated state, and the device must
// keep serving once the fault clears.

func TestReadFaultSurfacesOnRetrieve(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.CacheBudget = 1 })
	mustStore(t, d, key(1), val(1, 64))
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	d.Flash().FailNextReads(1)
	if _, _, err := d.Retrieve(d.Now(), key(1)); !errors.Is(err, nand.ErrReadFault) {
		t.Fatalf("err = %v, want ErrReadFault", err)
	}
	// Fault cleared: same key must read fine.
	if got := mustGet(t, d, key(1)); !bytes.Equal(got, val(1, 64)) {
		t.Fatal("value corrupted after transient read fault")
	}
}

func TestProgramFaultSurfacesOnStore(t *testing.T) {
	d := openSmall(t, nil)
	// Extent-sized value programs immediately, so the fault lands inside
	// the store itself.
	d.Flash().FailNextPrograms(1)
	big := val(2, 20*1024)
	if _, err := d.Store(d.Now(), key(2), big); !errors.Is(err, nand.ErrProgramFault) {
		t.Fatalf("err = %v, want ErrProgramFault", err)
	}
	// Note: a failed program consumes the page slot (real firmware would
	// mark it bad); the next store must still succeed.
	if _, err := d.Store(d.Now(), key(3), val(3, 64)); err == nil {
		if got := mustGet(t, d, key(3)); !bytes.Equal(got, val(3, 64)) {
			t.Fatal("post-fault store unreadable")
		}
	} else {
		t.Fatalf("store after program fault: %v", err)
	}
}

func TestIndexReadFaultSurfacesButDeviceRecovers(t *testing.T) {
	d := openSmall(t, func(c *Config) { c.CacheBudget = 1 })
	const n = 400
	for i := 0; i < n; i++ {
		mustStore(t, d, key(i), val(i, 32))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// With a 1-byte cache every lookup reads an index page from flash.
	d.Flash().FailNextReads(1)
	sawErr := false
	for i := 0; i < 5; i++ {
		if _, _, err := d.Retrieve(d.Now(), key(i)); err != nil {
			if !errors.Is(err, nand.ErrReadFault) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("injected index read fault never surfaced")
	}
	for i := 0; i < n; i += 37 {
		if got := mustGet(t, d, key(i)); !bytes.Equal(got, val(i, 32)) {
			t.Fatalf("key %d unreadable after fault cleared", i)
		}
	}
}

// TestReadFaultIsNotCounted pins the counting rule of the read bodies: a
// GET or EXIST is counted once it answers, and never when a flash fault
// fails it. An EXIST answers found or not found; a GET is counted in
// Retrieves when it returns a value.
func TestReadFaultIsNotCounted(t *testing.T) {
	d := openSmall(t, nil)
	mustStore(t, d, key(1), val(1, 64))
	if err := d.FlushData(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	d.Flash().FailNextReads(1)
	if _, _, err := d.Exist(d.Now(), key(1)); !errors.Is(err, nand.ErrReadFault) {
		t.Fatalf("Exist err = %v, want ErrReadFault", err)
	}
	d.Flash().FailNextReads(1)
	if _, _, err := d.Retrieve(d.Now(), key(1)); !errors.Is(err, nand.ErrReadFault) {
		t.Fatalf("Retrieve err = %v, want ErrReadFault", err)
	}
	if got := d.Stats(); got.Exists != st.Exists || got.Retrieves != st.Retrieves {
		t.Fatalf("faulted reads counted: exists %d -> %d, retrieves %d -> %d",
			st.Exists, got.Exists, st.Retrieves, got.Retrieves)
	}
	if ok, _, err := d.Exist(d.Now(), key(1)); err != nil || !ok {
		t.Fatalf("Exist(stored) = %v, %v", ok, err)
	}
	if ok, _, err := d.Exist(d.Now(), key(2)); err != nil || ok {
		t.Fatalf("Exist(absent) = %v, %v", ok, err)
	}
	if got := mustGet(t, d, key(1)); !bytes.Equal(got, val(1, 64)) {
		t.Fatal("value corrupted after transient read faults")
	}
	if got := d.Stats(); got.Exists != st.Exists+2 || got.Retrieves != st.Retrieves+1 {
		t.Fatalf("answers counted: exists %d -> %d (want +2), retrieves %d -> %d (want +1)",
			st.Exists, got.Exists, st.Retrieves, got.Retrieves)
	}
}
