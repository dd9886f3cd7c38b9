package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ResizeModeRow compares one resize strategy's latency profile during
// index growth.
type ResizeModeRow struct {
	Mode      string
	Keys      int64
	Resizes   int
	TotalHalt sim.Duration // accumulated queue-halt time (stop-the-world only)
	StoreP50  sim.Duration
	StoreP999 sim.Duration
	StoreMax  sim.Duration
}

// AblationResizeMode quantifies the paper's §VI "real-time index
// scaling" discussion: the paper's stop-the-world migration (HaltResize)
// concentrates its cost into a few commands (huge tail latency), while
// the default incremental migration bounds per-command work at the
// price of a longer total migration window.
func AblationResizeMode(w io.Writer, s Scale) ([]ResizeModeRow, error) {
	keys := s.div64(2_000_000, 80_000)
	fmt.Fprintf(w, "Ablation — resize strategy during growth to %d keys (store latency, simulated)\n", keys)
	fmt.Fprintf(w, "%-16s %-8s %-14s %-12s %-12s %-12s\n",
		"mode", "resizes", "total halt", "p50", "p99.9", "max")

	var rows []ResizeModeRow
	for _, mode := range []struct {
		name string
		halt bool
	}{
		{"stop-the-world", true},
		{"incremental", false},
	} {
		dev, err := device.Open(device.Config{
			Capacity:    keys*64 + (128 << 20),
			Index:       device.IndexRHIK,
			CacheBudget: 64 << 20,
			HaltResize:  mode.halt,
		})
		if err != nil {
			return nil, err
		}
		// Measure per-command firmware time: the interval the command
		// occupies the device, which is where a stop-the-world migration
		// lands as one giant stall.
		var h metrics.Histogram
		var d asyncDriver
		d.dev = dev
		value := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for i := int64(0); i < keys; i++ {
			before := dev.Now()
			if err := d.store(workload.KeyBytes(uint64(i)), value); err != nil &&
				!errors.Is(err, index.ErrCollision) {
				return nil, err
			}
			h.Record(int64(dev.Now().Sub(before)))
		}
		row := ResizeModeRow{
			Mode:      mode.name,
			Keys:      keys,
			Resizes:   len(dev.ResizeEvents()),
			TotalHalt: dev.Stats().ResizeHalt,
			StoreP50:  sim.Duration(h.Percentile(50)),
			StoreP999: sim.Duration(h.Percentile(99.9)),
			StoreMax:  sim.Duration(h.Max()),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-16s %-8d %-14s %-12s %-12s %-12s\n",
			row.Mode, row.Resizes, row.TotalHalt.String(),
			row.StoreP50.String(), row.StoreP999.String(), row.StoreMax.String())
	}
	hr(w)
	fmt.Fprintln(w, "Expectation: identical p50; incremental mode cuts worst-case store latency by orders")
	fmt.Fprintln(w, "of magnitude because no single command pays for a whole migration.")
	return rows, nil
}
